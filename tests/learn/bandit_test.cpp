#include "learn/bandit.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "sim/rng.hpp"

namespace sa::learn {
namespace {

using Factory = std::function<std::unique_ptr<Bandit>(std::size_t arms)>;

struct NamedFactory {
  std::string label;
  Factory make;
};

// Test names print the label; gtest's default byte dump would embed heap
// addresses and change from run to run.
void PrintTo(const NamedFactory& f, std::ostream* os) { *os << f.label; }

class AnyBanditTest : public ::testing::TestWithParam<NamedFactory> {};

/// Property: on a stationary Bernoulli problem, every policy should pull
/// the best arm most often after a learning period.
TEST_P(AnyBanditTest, FindsBestArmOnStationaryProblem) {
  auto bandit = GetParam().make(4);
  sim::Rng rng(101);
  const double probs[] = {0.2, 0.5, 0.9, 0.4};
  std::size_t best_pulls = 0;
  const int horizon = 3000;
  for (int i = 0; i < horizon; ++i) {
    const std::size_t arm = bandit->select(rng);
    bandit->update(arm, rng.chance(probs[arm]) ? 1.0 : 0.0);
    if (i >= horizon / 2 && arm == 2) ++best_pulls;
  }
  EXPECT_GT(best_pulls, static_cast<std::size_t>(horizon / 2 * 0.6))
      << GetParam().label;
}

TEST_P(AnyBanditTest, SelectAlwaysInRange) {
  auto bandit = GetParam().make(3);
  sim::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const std::size_t arm = bandit->select(rng);
    ASSERT_LT(arm, 3u);
    bandit->update(arm, 0.5);
  }
}

TEST_P(AnyBanditTest, ResetRestoresTheInitialValues) {
  // The invariant is that reset() returns to the fresh state exactly,
  // whatever the policy's prior.
  auto fresh = GetParam().make(2);
  auto bandit = GetParam().make(2);
  sim::Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const auto arm = bandit->select(rng);
    bandit->update(arm, arm == 0 ? 1.0 : 0.0);
  }
  bandit->reset();
  EXPECT_DOUBLE_EQ(bandit->value(0), fresh->value(0));
  EXPECT_DOUBLE_EQ(bandit->value(1), fresh->value(1));
}

TEST_P(AnyBanditTest, ValueApproximatesMeanReward) {
  auto bandit = GetParam().make(2);
  sim::Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    const auto arm = bandit->select(rng);
    bandit->update(arm, rng.chance(arm == 0 ? 0.3 : 0.8) ? 1.0 : 0.0);
  }
  // The frequently-pulled best arm's estimate should be near truth.
  EXPECT_NEAR(bandit->value(1), 0.8, 0.15) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, AnyBanditTest,
    ::testing::Values(
        NamedFactory{"eps_greedy",
                     [](std::size_t n) {
                       return std::make_unique<EpsilonGreedy>(n, 0.1);
                     }},
        NamedFactory{"ucb1",
                     [](std::size_t n) { return std::make_unique<Ucb1>(n); }},
        NamedFactory{"ducb",
                     [](std::size_t n) {
                       return std::make_unique<DiscountedUcb>(n, 0.995);
                     }}),
    [](const auto& info) { return info.param.label; });

TEST(DiscountedUcb, AdaptsAfterRewardSwap) {
  DiscountedUcb bandit(2, 0.97);
  sim::Rng rng(21);
  // Phase 1: arm 0 is best.
  for (int i = 0; i < 1500; ++i) {
    const auto arm = bandit.select(rng);
    bandit.update(arm, rng.chance(arm == 0 ? 0.9 : 0.1) ? 1.0 : 0.0);
  }
  // Phase 2: rewards swap; the discounted policy should follow.
  std::size_t arm1_pulls = 0;
  const int phase2 = 1500;
  for (int i = 0; i < phase2; ++i) {
    const auto arm = bandit.select(rng);
    bandit.update(arm, rng.chance(arm == 1 ? 0.9 : 0.1) ? 1.0 : 0.0);
    if (i >= phase2 / 2 && arm == 1) ++arm1_pulls;
  }
  EXPECT_GT(arm1_pulls, static_cast<std::size_t>(phase2 / 2 * 0.6));
}

TEST(Ucb1, PlaysEveryArmOnceFirst) {
  Ucb1 bandit(5);
  sim::Rng rng(3);
  std::vector<bool> seen(5, false);
  for (int i = 0; i < 5; ++i) {
    const auto arm = bandit.select(rng);
    EXPECT_FALSE(seen[arm]);  // no repeats during initial sweep
    seen[arm] = true;
    bandit.update(arm, 0.0);
  }
}

TEST(EpsilonGreedy, ZeroEpsilonIsPureGreedy) {
  EpsilonGreedy bandit(3, 0.0);
  sim::Rng rng(5);
  bandit.update(1, 1.0);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(bandit.select(rng), 1u);
}

TEST(EpsilonGreedy, DecaySuppressesExplorationOverTime) {
  EpsilonGreedy bandit(2, 1.0, 0.5);  // halves every step
  sim::Rng rng(6);
  bandit.update(0, 1.0);
  // After many steps epsilon ~ 0 and selection should be pinned greedy.
  for (int i = 0; i < 60; ++i) bandit.select(rng);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(bandit.select(rng), 0u);
}

TEST(Bandit, ArmsAccessor) {
  EXPECT_EQ(EpsilonGreedy(4).arms(), 4u);
  EXPECT_EQ(Ucb1(2).arms(), 2u);
  EXPECT_EQ(DiscountedUcb(6).arms(), 6u);
}

}  // namespace
}  // namespace sa::learn

#include "core/attention.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace sa::core {
namespace {

using Strategy = AttentionManager::Strategy;

/// Names of the signals a select() chose, in its order.
std::vector<std::string> names(const AttentionManager& am,
                               const std::vector<std::size_t>& chosen) {
  std::vector<std::string> out;
  for (const std::size_t i : chosen) out.push_back(am.name(i));
  return out;
}

class AttentionBudgetTest : public ::testing::TestWithParam<Strategy> {};

/// Property: every budgeted strategy returns at most `budget` distinct
/// registered signals per step.
TEST_P(AttentionBudgetTest, RespectsBudget) {
  AttentionManager am(GetParam(), 3);
  for (int i = 0; i < 8; ++i) {
    am.register_signal(std::string("s").append(std::to_string(i)));
  }
  sim::Rng rng(1);
  for (int step = 0; step < 50; ++step) {
    const std::vector<std::size_t> chosen = am.select(rng);
    EXPECT_LE(chosen.size(), 3u);
    std::set<std::size_t> uniq(chosen.begin(), chosen.end());
    EXPECT_EQ(uniq.size(), chosen.size()) << "duplicate selections";
    for (const std::size_t i : chosen) {
      ASSERT_LT(i, am.signals());
      EXPECT_EQ(am.name(i).rfind("s", 0), 0u);
      am.feed(i, 1.0);
    }
  }
}

/// Property: no signal is starved forever. Round-robin and adaptive
/// guarantee this deterministically; random gives probabilistic coverage,
/// which the fixed seed and horizon make effectively certain: each signal
/// is drawn with p = budget/signals = 1/3 per step, so the chance any of
/// the 6 is missed in 140 steps is at most 6 * (2/3)^140 < 1e-23.
TEST_P(AttentionBudgetTest, EverySignalEventuallySampled) {
  AttentionManager am(GetParam(), 2);
  for (int i = 0; i < 6; ++i) {
    am.register_signal(std::string("s").append(std::to_string(i)));
  }
  sim::Rng rng(2);
  std::map<std::string, int> sampled;
  for (int step = 0; step < 140; ++step) {
    for (const std::size_t i : am.select(rng)) {
      ++sampled[am.name(i)];
      am.feed(i, 0.0);
    }
  }
  EXPECT_EQ(sampled.size(), 6u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, AttentionBudgetTest,
                         ::testing::Values(Strategy::RoundRobin,
                                           Strategy::Random,
                                           Strategy::Adaptive),
                         [](const auto& info) {
                           switch (info.param) {
                             case Strategy::All: return "all";
                             case Strategy::RoundRobin: return "rr";
                             case Strategy::Random: return "random";
                             case Strategy::Adaptive: return "adaptive";
                           }
                           return "?";
                         });

TEST(AttentionManager, AllIgnoresBudget) {
  AttentionManager am(Strategy::All, 1);
  am.register_signal("a");
  am.register_signal("b");
  sim::Rng rng(3);
  EXPECT_EQ(am.select(rng).size(), 2u);
}

TEST(AttentionManager, EmptyRegistryYieldsNothing) {
  AttentionManager am(Strategy::Adaptive, 4);
  sim::Rng rng(4);
  EXPECT_TRUE(am.select(rng).empty());
}

TEST(AttentionManager, RoundRobinCyclesDeterministically) {
  AttentionManager am(Strategy::RoundRobin, 2);
  for (const char* s : {"a", "b", "c", "d"}) am.register_signal(s);
  sim::Rng rng(5);
  EXPECT_EQ(names(am, am.select(rng)), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(names(am, am.select(rng)), (std::vector<std::string>{"c", "d"}));
  EXPECT_EQ(names(am, am.select(rng)), (std::vector<std::string>{"a", "b"}));
}

TEST(AttentionManager, RandomIsAPartialShuffleOfTheIdentity) {
  // The Random strategy's draws are part of every agent's RNG stream:
  // each step shuffles a fresh identity, drawing below(n - i) for pick i.
  AttentionManager am(Strategy::Random, 3);
  for (int i = 0; i < 7; ++i) {
    am.register_signal(std::string("s").append(std::to_string(i)));
  }
  sim::Rng rng(11);
  sim::Rng ref(11);
  for (int step = 0; step < 20; ++step) {
    std::vector<std::size_t> idx(7);
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < 3; ++i) {
      std::swap(idx[i], idx[i + ref.below(idx.size() - i)]);
      want.push_back(idx[i]);
    }
    EXPECT_EQ(am.select(rng), want);
  }
  EXPECT_EQ(rng.below(1000000), ref.below(1000000));
}

TEST(AttentionManager, RegisterReturnsRegistrationIndex) {
  AttentionManager am(Strategy::All, 8);
  EXPECT_EQ(am.register_signal("a"), 0u);
  EXPECT_EQ(am.register_signal("b"), 1u);
  EXPECT_EQ(am.register_signal("a"), 0u);
  EXPECT_EQ(am.name(1), "b");
}

TEST(AttentionManager, AdaptivePrefersVolatileSignals) {
  AttentionManager am(Strategy::Adaptive, 1);
  const std::size_t steady = am.register_signal("steady");
  const std::size_t vol = am.register_signal("volatile");
  sim::Rng rng(6);
  // Warm both volatility models equally via All-like feeding.
  double v = 0.0;
  for (int i = 0; i < 30; ++i) {
    am.feed(steady, 5.0);
    am.feed(vol, v);
    v = v == 0.0 ? 10.0 : 0.0;
  }
  std::size_t volatile_picks = 0;
  const int steps = 40;
  for (int i = 0; i < steps; ++i) {
    const auto& chosen = am.select(rng);
    ASSERT_EQ(chosen.size(), 1u);
    if (chosen[0] == vol) {
      ++volatile_picks;
      am.feed(vol, v);
      v = v == 0.0 ? 10.0 : 0.0;
    } else {
      am.feed(steady, 5.0);
    }
  }
  // Staleness guarantees the steady signal is refreshed sometimes, but the
  // volatile one should dominate attention.
  EXPECT_GT(volatile_picks, static_cast<std::size_t>(steps / 2));
}

TEST(AttentionManager, DuplicateRegistrationIgnored) {
  AttentionManager am(Strategy::All, 8);
  am.register_signal("x");
  am.register_signal("x");
  EXPECT_EQ(am.signals(), 1u);
}

TEST(AttentionManager, FeedUnknownSignalIsSafe) {
  AttentionManager am(Strategy::Adaptive, 1);
  am.feed(3, 1.0);  // no signal registered at index 3
  SUCCEED();
}

}  // namespace
}  // namespace sa::core

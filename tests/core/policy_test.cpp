#include "core/policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>
#include <vector>

namespace sa::core {
namespace {

const std::vector<std::string> kActions{"a", "b", "c"};

TEST(FixedPolicy, AlwaysChoosesConfiguredAction) {
  FixedPolicy p(1);
  KnowledgeBase kb;
  sim::Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    const auto d = p.decide(0.0, kb, kActions, rng);
    EXPECT_EQ(d.action_index, 1u);
    EXPECT_EQ(d.action, "b");
  }
}

TEST(FixedPolicy, ClampsOutOfRangeIndex) {
  FixedPolicy p(99);
  KnowledgeBase kb;
  sim::Rng rng(1);
  EXPECT_EQ(p.decide(0.0, kb, kActions, rng).action_index, 2u);
}

TEST(RulePolicy, FirstMatchingRuleWins) {
  RulePolicy p(0);
  p.add_rule({"x high",
              [](const KnowledgeBase& kb) {
                return kb.number(kb.find("x")) > 5.0;
              },
              1,
              {"x"}});
  p.add_rule({"always", [](const KnowledgeBase&) { return true; }, 2, {}});
  KnowledgeBase kb;
  sim::Rng rng(1);
  kb.put_number(kb.key("x"), 10.0, 0.0);
  auto d = p.decide(0.0, kb, kActions, rng);
  EXPECT_EQ(d.action_index, 1u);
  EXPECT_NE(d.rationale.find("x high"), std::string::npos);
  EXPECT_EQ(d.evidence, std::vector<std::string>{"x"});

  kb.put_number(kb.key("x"), 0.0, 1.0);
  d = p.decide(1.0, kb, kActions, rng);
  EXPECT_EQ(d.action_index, 2u);  // second rule fires
}

TEST(RulePolicy, DefaultWhenNothingMatches) {
  RulePolicy p(2);
  p.add_rule({"never", [](const KnowledgeBase&) { return false; }, 0, {}});
  KnowledgeBase kb;
  sim::Rng rng(1);
  const auto d = p.decide(0.0, kb, kActions, rng);
  EXPECT_EQ(d.action_index, 2u);
  EXPECT_NE(d.rationale.find("default"), std::string::npos);
}

TEST(BanditPolicy, LearnsFromFeedback) {
  BanditPolicy p(std::make_unique<learn::EpsilonGreedy>(3, 0.1));
  KnowledgeBase kb;
  sim::Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const auto d = p.decide(0.0, kb, kActions, rng);
    p.feedback(d.action_index == 1 ? 1.0 : 0.0);
  }
  std::size_t ones = 0;
  for (int i = 0; i < 100; ++i) {
    const auto d = p.decide(0.0, kb, kActions, rng);
    p.feedback(d.action_index == 1 ? 1.0 : 0.0);
    ones += d.action_index == 1 ? 1 : 0;
  }
  EXPECT_GT(ones, 80u);
}

TEST(BanditPolicy, DecisionCarriesConsideredValues) {
  BanditPolicy p(std::make_unique<learn::EpsilonGreedy>(3, 0.0));
  KnowledgeBase kb;
  sim::Rng rng(3);
  auto d = p.decide(0.0, kb, kActions, rng);
  p.feedback(1.0);
  d = p.decide(0.0, kb, kActions, rng);
  ASSERT_EQ(d.considered.size(), 3u);
  EXPECT_EQ(d.considered[0].action, "a");
  EXPECT_FALSE(d.rationale.empty());
}

TEST(BanditPolicy, FeedbackWithoutDecisionIsIgnored) {
  BanditPolicy p(std::make_unique<learn::EpsilonGreedy>(2, 0.0));
  p.feedback(100.0);  // no pending decision: must not corrupt values
  EXPECT_DOUBLE_EQ(p.bandit().value(0), 0.0);
  EXPECT_DOUBLE_EQ(p.bandit().value(1), 0.0);
}

TEST(BanditPolicy, DoubleFeedbackCountsOnce) {
  BanditPolicy p(std::make_unique<learn::EpsilonGreedy>(1, 0.0));
  KnowledgeBase kb;
  sim::Rng rng(4);
  p.decide(0.0, kb, {"only"}, rng);
  p.feedback(1.0);
  p.feedback(1.0);  // stale, ignored
  EXPECT_DOUBLE_EQ(p.bandit().value(0), 1.0);  // one sample mean, not two
}

TEST(BanditPolicy, ResetClearsLearnedValues) {
  BanditPolicy p(std::make_unique<learn::EpsilonGreedy>(2, 0.0));
  KnowledgeBase kb;
  sim::Rng rng(5);
  p.decide(0.0, kb, {"a", "b"}, rng);
  p.feedback(5.0);
  p.reset();
  EXPECT_DOUBLE_EQ(p.bandit().value(0), 0.0);
}

TEST(ModelBasedPolicy, PicksArgmaxPredictedUtility) {
  GoalModel goals;
  const MetricId y = goals.add_objective("y", utility::rising(0.0, 10.0));
  // Action k is predicted to yield y = 3k.
  ModelBasedPolicy p(
      goals,
      [y](std::size_t action, const KnowledgeBase&, std::span<double> out) {
        out[y] = 3.0 * static_cast<double>(action);
      },
      {"some.evidence"});
  KnowledgeBase kb;
  sim::Rng rng(6);
  const auto d = p.decide(0.0, kb, kActions, rng);
  EXPECT_EQ(d.action_index, 2u);
  ASSERT_EQ(d.considered.size(), 3u);
  EXPECT_DOUBLE_EQ(d.considered[0].score, 0.0);
  EXPECT_DOUBLE_EQ(d.considered[2].score, 0.6);
  EXPECT_EQ(d.evidence, std::vector<std::string>{"some.evidence"});
  EXPECT_EQ(d.rationale,
            "predicted utility 0.6 is the maximum over 3 simulated "
            "alternatives");
}

TEST(ModelBasedPolicy, PredictionStartsAbsent) {
  // Each action's prediction starts all-absent: a metric the model leaves
  // unwritten scores 0, whatever the previous action predicted.
  GoalModel goals;
  const MetricId y = goals.add_objective("y", utility::rising(0.0, 10.0));
  std::vector<std::size_t> sizes;
  ModelBasedPolicy p(goals, [&](std::size_t action, const KnowledgeBase&,
                                std::span<double> out) {
    sizes.push_back(out.size());
    EXPECT_TRUE(std::isnan(out[y]));
    if (action == 0) out[y] = 10.0;
  });
  KnowledgeBase kb;
  sim::Rng rng(8);
  const auto d = p.decide(0.0, kb, kActions, rng);
  EXPECT_EQ(d.action_index, 0u);
  EXPECT_DOUBLE_EQ(d.considered[1].score, 0.0);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1, 1}));
}

TEST(ModelBasedPolicy, RespectsHardConstraintsInPrediction) {
  GoalModel goals;
  const MetricId y = goals.add_objective("y", utility::rising(0.0, 10.0));
  goals.add_constraint("y", 5.0, /*hard=*/true);
  ModelBasedPolicy p(goals, [y](std::size_t action, const KnowledgeBase&,
                                std::span<double> out) {
    out[y] = 3.0 * static_cast<double>(action);
  });
  KnowledgeBase kb;
  sim::Rng rng(7);
  // y=6 for action 2 violates the cap (utility 0); action 1 (y=3) wins.
  EXPECT_EQ(p.decide(0.0, kb, kActions, rng).action_index, 1u);
}

TEST(Policies, NamesAreInformative) {
  EXPECT_EQ(FixedPolicy(0).name(), "fixed");
  EXPECT_EQ(RulePolicy(0).name(), "rules");
  EXPECT_EQ(
      BanditPolicy(std::make_unique<learn::Ucb1>(2)).name(), "bandit:ucb1");
  GoalModel g;
  EXPECT_EQ(ModelBasedPolicy(
                g, [](std::size_t, const KnowledgeBase&, std::span<double>) {})
                .name(),
            "model-based");
}

}  // namespace
}  // namespace sa::core

#include "core/policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>
#include <vector>

namespace sa::core {
namespace {

constexpr std::size_t kActions = 3;

/// One decide() into a fresh record.
Decision decide(Policy& p, const KnowledgeBase& kb, sim::Rng& rng,
                std::size_t actions = kActions) {
  Decision d;
  p.decide(0.0, kb, actions, rng, d);
  return d;
}

std::vector<std::string> evidence_of(const Decision& d) {
  return {d.evidence.begin(), d.evidence.end()};
}

TEST(FixedPolicy, AlwaysChoosesConfiguredAction) {
  FixedPolicy p(1);
  KnowledgeBase kb;
  sim::Rng rng(1);
  Decision d;
  for (int i = 0; i < 10; ++i) {
    p.decide(0.0, kb, kActions, rng, d);
    EXPECT_EQ(d.action_index, 1u);
    EXPECT_TRUE(d.scores.empty());
  }
}

TEST(FixedPolicy, ClampsOutOfRangeIndex) {
  FixedPolicy p(99);
  KnowledgeBase kb;
  sim::Rng rng(1);
  EXPECT_EQ(decide(p, kb, rng).action_index, 2u);
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
  Decision d;
  p.decide(0.0, kb, kActions, rng, d);
  EXPECT_EQ(d.action_index, 1u);
  EXPECT_EQ(d.rationale, "rule fired: x high");
  EXPECT_EQ(evidence_of(d), std::vector<std::string>{"x"});

  // The same record, rewritten: nothing of the first decision remains.
  kb.put_number(kb.key("x"), 0.0, 1.0);
  p.decide(1.0, kb, kActions, rng, d);
  EXPECT_EQ(d.action_index, 2u);  // second rule fires
  EXPECT_EQ(d.rationale, "rule fired: always");
  EXPECT_TRUE(d.evidence.empty());
}

TEST(RulePolicy, DefaultWhenNothingMatches) {
  RulePolicy p(2);
  p.add_rule({"never", [](const KnowledgeBase&) { return false; }, 0, {}});
  KnowledgeBase kb;
  sim::Rng rng(1);
  const Decision d = decide(p, kb, rng);
  EXPECT_EQ(d.action_index, 2u);
  EXPECT_EQ(d.rationale, "no rule matched; default");
}

TEST(BanditPolicy, LearnsFromFeedback) {
  BanditPolicy p(std::make_unique<learn::EpsilonGreedy>(3, 0.1));
  KnowledgeBase kb;
  sim::Rng rng(2);
  Decision d;
  for (int i = 0; i < 2000; ++i) {
    p.decide(0.0, kb, kActions, rng, d);
    p.feedback(d.action_index == 1 ? 1.0 : 0.0);
  }
  std::size_t ones = 0;
  for (int i = 0; i < 100; ++i) {
    p.decide(0.0, kb, kActions, rng, d);
    p.feedback(d.action_index == 1 ? 1.0 : 0.0);
    ones += d.action_index == 1 ? 1 : 0;
  }
  EXPECT_GT(ones, 80u);
}

TEST(BanditPolicy, DecisionCarriesConsideredValues) {
  BanditPolicy p(std::make_unique<learn::EpsilonGreedy>(3, 0.0));
  KnowledgeBase kb;
  sim::Rng rng(3);
  Decision d;
  p.decide(0.0, kb, kActions, rng, d);
  p.feedback(1.0);
  p.decide(0.0, kb, kActions, rng, d);
  // Every arm's value estimate, by action index.
  ASSERT_EQ(d.scores.size(), 3u);
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_DOUBLE_EQ(d.scores[a], p.bandit().value(a));
  }
  EXPECT_EQ(d.rationale, "eps-greedy value estimate 1");
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
  (void)decide(p, kb, rng, 1);
  p.feedback(1.0);
  p.feedback(1.0);  // stale, ignored
  EXPECT_DOUBLE_EQ(p.bandit().value(0), 1.0);  // one sample mean, not two
}

TEST(BanditPolicy, ResetClearsLearnedValues) {
  BanditPolicy p(std::make_unique<learn::EpsilonGreedy>(2, 0.0));
  KnowledgeBase kb;
  sim::Rng rng(5);
  (void)decide(p, kb, rng, 2);
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
  const Decision d = decide(p, kb, rng);
  EXPECT_EQ(d.action_index, 2u);
  ASSERT_EQ(d.scores.size(), 3u);
  EXPECT_DOUBLE_EQ(d.scores[0], 0.0);
  EXPECT_DOUBLE_EQ(d.scores[2], 0.6);
  EXPECT_EQ(evidence_of(d), std::vector<std::string>{"some.evidence"});
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
  const Decision d = decide(p, kb, rng);
  EXPECT_EQ(d.action_index, 0u);
  EXPECT_DOUBLE_EQ(d.scores[1], 0.0);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1, 1}));
}

TEST(ModelBasedPolicy, RespectsHardConstraintsInPrediction) {
  GoalModel goals;
  const MetricId y = goals.add_objective("y", utility::rising(0.0, 10.0));
  goals.add_constraint("y", 5.0);
  ModelBasedPolicy p(goals, [y](std::size_t action, const KnowledgeBase&,
                                std::span<double> out) {
    out[y] = 3.0 * static_cast<double>(action);
  });
  KnowledgeBase kb;
  sim::Rng rng(7);
  // y=6 for action 2 violates the cap (utility 0); action 1 (y=3) wins.
  EXPECT_EQ(decide(p, kb, rng).action_index, 1u);
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

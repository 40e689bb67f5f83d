#include "core/goal_awareness.hpp"

#include <gtest/gtest.h>

#include "support/observations.hpp"

namespace sa::core {
namespace {

using test::support::Feed;

GoalModel simple_goals() {
  GoalModel g;
  g.add_objective("x", utility::rising(0.0, 10.0), 1.0);
  return g;
}

TEST(GoalAwareness, PublishesUtilityFromObservation) {
  auto goals = simple_goals();
  KnowledgeBase kb;
  Feed obs;
  GoalAwareness ga(kb, goals);
  ga.update(1.0, obs({{"x", 5.0}}));
  EXPECT_DOUBLE_EQ(ga.current_utility(), 0.5);
  EXPECT_DOUBLE_EQ(kb.number(kb.find("goal.utility")), 0.5);
  EXPECT_DOUBLE_EQ(kb.number(kb.find("goal.feasible")), 1.0);
  EXPECT_DOUBLE_EQ(kb.number(kb.find("goal.x.utility")), 0.5);
}

TEST(GoalAwareness, FallsBackToKnowledgeBaseWhenUnsampled) {
  auto goals = simple_goals();
  KnowledgeBase kb;
  GoalAwareness ga(kb, goals);
  // Produced earlier by another process.
  kb.put_number(kb.key("x"), 10.0, 0.0);
  ga.update(1.0, {});             // attention skipped "x" this step
  EXPECT_DOUBLE_EQ(ga.current_utility(), 1.0);
}

TEST(GoalAwareness, FreshObservationBeatsStaleKnowledge) {
  auto goals = simple_goals();
  KnowledgeBase kb;
  Feed obs;
  GoalAwareness ga(kb, goals);
  kb.put_number(kb.key("x"), 0.0, 0.0);
  ga.update(1.0, obs({{"x", 10.0}}));
  EXPECT_DOUBLE_EQ(ga.current_utility(), 1.0);
}

TEST(GoalAwareness, ReportsViolations) {
  GoalModel goals;
  goals.add_objective("x", utility::rising(0.0, 1.0), 1.0);
  goals.add_constraint("x", 0.5);
  KnowledgeBase kb;
  Feed obs;
  GoalAwareness ga(kb, goals);
  ga.update(1.0, obs({{"x", 0.9}}));
  EXPECT_DOUBLE_EQ(kb.number(kb.find("goal.feasible")), 0.0);
  EXPECT_DOUBLE_EQ(kb.number(kb.find("goal.violations")), 1.0);
  EXPECT_DOUBLE_EQ(ga.current_utility(), 0.0);
}

TEST(GoalAwareness, TrendSmoothsUtility) {
  auto goals = simple_goals();
  KnowledgeBase kb;
  Feed obs;
  GoalAwareness ga(kb, goals);
  for (int i = 0; i < 50; ++i) ga.update(i, obs({{"x", 10.0}}));
  const KnowledgeBase::KeyId trend = kb.find("goal.utility.trend");
  EXPECT_NEAR(kb.number(trend), 1.0, 1e-6);
  ga.update(50.0, obs({{"x", 0.0}}));
  // One bad step dents the trend only slightly.
  EXPECT_GT(kb.number(trend), 0.8);
  EXPECT_DOUBLE_EQ(ga.current_utility(), 0.0);
}

TEST(GoalAwareness, RespondsToRuntimeGoalChange) {
  GoalModel goals;
  goals.add_objective("a", utility::rising(0.0, 1.0), 1.0);
  goals.add_objective("b", utility::rising(0.0, 1.0), 1.0);
  KnowledgeBase kb;
  Feed obs;
  GoalAwareness ga(kb, goals);
  ga.update(0.0, obs({{"a", 1.0}, {"b", 0.0}}));
  EXPECT_DOUBLE_EQ(ga.current_utility(), 0.5);
  goals.set_weight("b", 3.0);  // stakeholder priorities shift
  ga.update(1.0, obs({{"a", 1.0}, {"b", 0.0}}));
  EXPECT_DOUBLE_EQ(ga.current_utility(), 0.25);
}

TEST(GoalAwareness, ObjectiveAddedLaterIsEvaluated) {
  GoalModel goals;
  goals.add_objective("a", utility::rising(0.0, 1.0), 1.0);
  KnowledgeBase kb;
  Feed obs;
  GoalAwareness ga(kb, goals);
  ga.update(0.0, obs({{"a", 1.0}, {"b", 0.5}}));
  EXPECT_DOUBLE_EQ(ga.current_utility(), 1.0);
  EXPECT_EQ(kb.find("goal.b.utility"), KnowledgeBase::kNoKey);
  goals.add_objective("b", utility::rising(0.0, 1.0), 1.0);
  ga.update(1.0, obs({{"a", 1.0}, {"b", 0.5}}));
  EXPECT_DOUBLE_EQ(ga.current_utility(), 0.75);
  EXPECT_DOUBLE_EQ(kb.number(kb.find("goal.b.utility")), 0.5);
  EXPECT_DOUBLE_EQ(ga.quality(), 1.0);
}

TEST(GoalAwareness, QualityIsMetricAvailability) {
  auto goals = simple_goals();
  goals.add_constraint("y", 100.0);  // a second metric
  KnowledgeBase kb;
  Feed obs;
  GoalAwareness ga(kb, goals);
  EXPECT_DOUBLE_EQ(ga.quality(), 0.0);  // never updated
  ga.update(0.0, obs({{"x", 1.0}}));  // y nowhere to be found
  EXPECT_DOUBLE_EQ(ga.quality(), 0.5);
  kb.put_number(kb.key("y"), 2.0, 0.0);
  ga.update(1.0, obs({{"x", 1.0}}));
  EXPECT_DOUBLE_EQ(ga.quality(), 1.0);
}

TEST(GoalAwareness, LevelAndName) {
  auto goals = simple_goals();
  KnowledgeBase kb;
  GoalAwareness ga(kb, goals);
  EXPECT_EQ(ga.level(), Level::Goal);
  EXPECT_EQ(ga.name(), "goal");
}

}  // namespace
}  // namespace sa::core

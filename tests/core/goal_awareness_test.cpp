#include "core/goal_awareness.hpp"

#include <gtest/gtest.h>

#include "support/observations.hpp"

namespace sa::core {
namespace {

using test::support::Feed;

GoalModel simple_goals() {
  GoalModel g;
  g.add_objective({"x", utility::rising(0.0, 10.0), 1.0});
  return g;
}

TEST(GoalAwareness, PublishesUtilityFromObservation) {
  auto goals = simple_goals();
  KnowledgeBase kb;
  Feed obs;
  GoalAwareness ga(kb, goals, {"x"});
  ga.update(1.0, obs({{"x", 5.0}}));
  EXPECT_DOUBLE_EQ(ga.current_utility(), 0.5);
  EXPECT_DOUBLE_EQ(kb.number("goal.utility"), 0.5);
  EXPECT_DOUBLE_EQ(kb.number("goal.feasible"), 1.0);
  EXPECT_DOUBLE_EQ(kb.number("goal.x.utility"), 0.5);
}

TEST(GoalAwareness, FallsBackToKnowledgeBaseWhenUnsampled) {
  auto goals = simple_goals();
  KnowledgeBase kb;
  GoalAwareness ga(kb, goals, {"x"});
  kb.put_number("x", 10.0, 0.0);  // produced earlier by another process
  ga.update(1.0, {});             // attention skipped "x" this step
  EXPECT_DOUBLE_EQ(ga.current_utility(), 1.0);
}

TEST(GoalAwareness, FreshObservationBeatsStaleKnowledge) {
  auto goals = simple_goals();
  KnowledgeBase kb;
  Feed obs;
  GoalAwareness ga(kb, goals, {"x"});
  kb.put_number("x", 0.0, 0.0);
  ga.update(1.0, obs({{"x", 10.0}}));
  EXPECT_DOUBLE_EQ(ga.current_utility(), 1.0);
}

TEST(GoalAwareness, ReportsViolations) {
  GoalModel goals;
  goals.add_objective({"x", utility::rising(0.0, 1.0), 1.0});
  goals.add_constraint(
      {"cap", [](const MetricMap& m) { return m.at("x") < 0.5; }, true});
  KnowledgeBase kb;
  Feed obs;
  GoalAwareness ga(kb, goals, {"x"});
  ga.update(1.0, obs({{"x", 0.9}}));
  EXPECT_FALSE(ga.currently_feasible());
  EXPECT_DOUBLE_EQ(kb.number("goal.violations"), 1.0);
  EXPECT_DOUBLE_EQ(ga.current_utility(), 0.0);
}

TEST(GoalAwareness, TrendSmoothsUtility) {
  auto goals = simple_goals();
  KnowledgeBase kb;
  Feed obs;
  GoalAwareness ga(kb, goals, {"x"});
  for (int i = 0; i < 50; ++i) ga.update(i, obs({{"x", 10.0}}));
  EXPECT_NEAR(ga.utility_trend(), 1.0, 1e-6);
  ga.update(50.0, obs({{"x", 0.0}}));
  // One bad step dents the trend only slightly.
  EXPECT_GT(ga.utility_trend(), 0.8);
  EXPECT_DOUBLE_EQ(ga.current_utility(), 0.0);
}

TEST(GoalAwareness, RespondsToRuntimeGoalChange) {
  GoalModel goals;
  goals.add_objective({"a", utility::rising(0.0, 1.0), 1.0});
  goals.add_objective({"b", utility::rising(0.0, 1.0), 1.0});
  KnowledgeBase kb;
  Feed obs;
  GoalAwareness ga(kb, goals, {"a", "b"});
  ga.update(0.0, obs({{"a", 1.0}, {"b", 0.0}}));
  EXPECT_DOUBLE_EQ(ga.current_utility(), 0.5);
  ga.goals().set_weight("b", 3.0);  // stakeholder priorities shift
  ga.update(1.0, obs({{"a", 1.0}, {"b", 0.0}}));
  EXPECT_DOUBLE_EQ(ga.current_utility(), 0.25);
}

TEST(GoalAwareness, QualityIsMetricAvailability) {
  auto goals = simple_goals();
  KnowledgeBase kb;
  Feed obs;
  GoalAwareness ga(kb, goals, {"x", "y"});
  EXPECT_DOUBLE_EQ(ga.quality(), 0.0);  // never updated
  ga.update(0.0, obs({{"x", 1.0}}));  // y nowhere to be found
  EXPECT_DOUBLE_EQ(ga.quality(), 0.5);
  kb.put_number("y", 2.0, 0.0);
  ga.update(1.0, obs({{"x", 1.0}}));
  EXPECT_DOUBLE_EQ(ga.quality(), 1.0);
}

TEST(GoalAwareness, LastMetricsExposesAssembledMap) {
  auto goals = simple_goals();
  KnowledgeBase kb;
  Feed obs;
  GoalAwareness ga(kb, goals, {"x"});
  ga.update(0.0, obs({{"x", 4.0}}));
  ASSERT_EQ(ga.last_metrics().size(), 1u);
  EXPECT_DOUBLE_EQ(ga.last_metrics().at("x"), 4.0);
}

TEST(GoalAwareness, LevelAndName) {
  auto goals = simple_goals();
  KnowledgeBase kb;
  GoalAwareness ga(kb, goals, {});
  EXPECT_EQ(ga.level(), Level::Goal);
  EXPECT_EQ(ga.name(), "goal");
}

}  // namespace
}  // namespace sa::core

#include "core/goal.hpp"

#include <gtest/gtest.h>

namespace sa::core {
namespace {

TEST(UtilityFns, RisingClampsAndInterpolates) {
  const auto u = utility::rising(10.0, 20.0);
  EXPECT_DOUBLE_EQ(u(5.0), 0.0);
  EXPECT_DOUBLE_EQ(u(10.0), 0.0);
  EXPECT_DOUBLE_EQ(u(15.0), 0.5);
  EXPECT_DOUBLE_EQ(u(20.0), 1.0);
  EXPECT_DOUBLE_EQ(u(100.0), 1.0);
}

TEST(UtilityFns, FallingClampsAndInterpolates) {
  const auto u = utility::falling(10.0, 20.0);
  EXPECT_DOUBLE_EQ(u(5.0), 1.0);
  EXPECT_DOUBLE_EQ(u(15.0), 0.5);
  EXPECT_DOUBLE_EQ(u(25.0), 0.0);
}

TEST(UtilityFns, TargetPeaksAtTarget) {
  const auto u = utility::target(50.0, 10.0);
  EXPECT_DOUBLE_EQ(u(50.0), 1.0);
  EXPECT_DOUBLE_EQ(u(55.0), 0.5);
  EXPECT_DOUBLE_EQ(u(45.0), 0.5);
  EXPECT_DOUBLE_EQ(u(65.0), 0.0);
}

TEST(UtilityFns, DegenerateRangesActAsSteps) {
  EXPECT_DOUBLE_EQ(utility::rising(5.0, 5.0)(6.0), 1.0);
  EXPECT_DOUBLE_EQ(utility::rising(5.0, 5.0)(4.0), 0.0);
  EXPECT_DOUBLE_EQ(utility::falling(5.0, 5.0)(4.0), 1.0);
  EXPECT_DOUBLE_EQ(utility::target(5.0, 0.0)(5.0), 1.0);
  EXPECT_DOUBLE_EQ(utility::target(5.0, 0.0)(5.1), 0.0);
}

TEST(GoalModel, EmptyModelHasZeroUtility) {
  GoalModel g;
  EXPECT_DOUBLE_EQ(g.utility({}), 0.0);
  EXPECT_EQ(g.objectives(), 0u);
}

TEST(GoalModel, SingleObjectivePassesThrough) {
  GoalModel g;
  g.add_objective({"x", utility::rising(0.0, 10.0), 1.0});
  EXPECT_DOUBLE_EQ(g.utility({{"x", 5.0}}), 0.5);
}

TEST(GoalModel, WeightsBlendObjectives) {
  GoalModel g;
  g.add_objective({"a", utility::rising(0.0, 1.0), 3.0});
  g.add_objective({"b", utility::rising(0.0, 1.0), 1.0});
  // a=1 (u=1, w=3), b=0 (u=0, w=1) -> 3/4.
  EXPECT_DOUBLE_EQ(g.utility({{"a", 1.0}, {"b", 0.0}}), 0.75);
}

TEST(GoalModel, MissingMetricScoresZero) {
  GoalModel g;
  g.add_objective({"a", utility::rising(0.0, 1.0), 1.0});
  g.add_objective({"b", utility::rising(0.0, 1.0), 1.0});
  EXPECT_DOUBLE_EQ(g.utility({{"a", 1.0}}), 0.5);
}

TEST(GoalModel, SetWeightChangesTradeoffAtRuntime) {
  GoalModel g;
  g.add_objective({"perf", utility::rising(0.0, 1.0), 1.0});
  g.add_objective({"power", utility::falling(0.0, 1.0), 1.0});
  const MetricMap m{{"perf", 1.0}, {"power", 1.0}};  // perf great, power bad
  EXPECT_DOUBLE_EQ(g.utility(m), 0.5);
  ASSERT_TRUE(g.set_weight("power", 3.0));  // stakeholder now cares re power
  EXPECT_DOUBLE_EQ(g.utility(m), 0.25);
}

TEST(GoalModel, SetWeightOnUnknownMetricFails) {
  GoalModel g;
  g.add_objective({"x", utility::rising(0.0, 1.0), 1.0});
  EXPECT_FALSE(g.set_weight("y", 2.0));
}

TEST(GoalModel, HardConstraintZeroesUtility) {
  GoalModel g;
  g.add_objective({"x", utility::rising(0.0, 1.0), 1.0});
  g.add_constraint({"cap",
                    [](const MetricMap& m) { return m.at("x") <= 0.5; },
                    /*hard=*/true});
  EXPECT_DOUBLE_EQ(g.utility({{"x", 0.4}}), 0.4);
  EXPECT_DOUBLE_EQ(g.utility({{"x", 0.9}}), 0.0);
  EXPECT_FALSE(g.feasible({{"x", 0.9}}));
  EXPECT_TRUE(g.feasible({{"x", 0.4}}));
}

TEST(GoalModel, SoftConstraintAppliesPenalty) {
  GoalModel g;
  g.add_objective({"x", utility::rising(0.0, 1.0), 1.0});
  g.add_constraint({"soft",
                    [](const MetricMap& m) { return m.at("x") <= 0.5; },
                    /*hard=*/false,
                    /*penalty=*/0.3});
  EXPECT_NEAR(g.utility({{"x", 0.9}}), 0.6, 1e-12);
  // Soft violations do not make the state infeasible.
  EXPECT_TRUE(g.feasible({{"x", 0.9}}));
}

TEST(GoalModel, UtilityIsClampedToUnitInterval) {
  GoalModel g;
  g.add_objective({"x", utility::rising(0.0, 1.0), 1.0});
  g.add_constraint({"s1", [](const MetricMap&) { return false; }, false, 0.9});
  g.add_constraint({"s2", [](const MetricMap&) { return false; }, false, 0.9});
  EXPECT_DOUBLE_EQ(g.utility({{"x", 0.5}}), 0.0);
}

TEST(GoalModel, ViolatedCountsHardAndSoftConstraints) {
  GoalModel g;
  g.add_constraint({"a", [](const MetricMap&) { return false; }, true});
  g.add_constraint({"b", [](const MetricMap&) { return true; }, true});
  g.add_constraint({"c", [](const MetricMap&) { return false; }, false});
  EXPECT_EQ(g.violated({}), 2u);
}

TEST(GoalModel, BreakdownReportsPerObjective) {
  GoalModel g;
  g.add_objective({"a", utility::rising(0.0, 1.0), 1.0});
  g.add_objective({"b", utility::falling(0.0, 1.0), 2.0});
  const MetricMap m{{"a", 0.25}, {"b", 0.25}};
  ASSERT_EQ(g.objectives(), 2u);
  EXPECT_EQ(g.objective_metric(0), "a");
  EXPECT_EQ(g.objective_metric(1), "b");
  EXPECT_DOUBLE_EQ(g.objective_utility(0, m), 0.25);
  EXPECT_DOUBLE_EQ(g.objective_utility(1, m), 0.75);
  EXPECT_DOUBLE_EQ(g.objective_utility(0, {}), 0.0);  // metric missing
}

TEST(GoalModel, DominatesRequiresStrictImprovement) {
  GoalModel g;
  g.add_objective({"a", utility::rising(0.0, 1.0), 1.0});
  g.add_objective({"b", utility::rising(0.0, 1.0), 1.0});
  const MetricMap x{{"a", 0.8}, {"b", 0.8}};
  const MetricMap y{{"a", 0.5}, {"b", 0.8}};
  EXPECT_TRUE(g.dominates(x, y));
  EXPECT_FALSE(g.dominates(y, x));
  EXPECT_FALSE(g.dominates(x, x));  // equal: no strict improvement
}

TEST(GoalModel, DominatesFailsOnTradeOff) {
  GoalModel g;
  g.add_objective({"a", utility::rising(0.0, 1.0), 1.0});
  g.add_objective({"b", utility::rising(0.0, 1.0), 1.0});
  const MetricMap x{{"a", 0.9}, {"b", 0.1}};
  const MetricMap y{{"a", 0.1}, {"b", 0.9}};
  EXPECT_FALSE(g.dominates(x, y));
  EXPECT_FALSE(g.dominates(y, x));
}

TEST(GoalModel, RawUtilityIgnoresConstraints) {
  GoalModel g;
  g.add_objective({"x", utility::rising(0.0, 1.0), 1.0});
  g.add_constraint({"never", [](const MetricMap&) { return false; }, true});
  EXPECT_DOUBLE_EQ(g.raw_utility({{"x", 0.7}}), 0.7);
  EXPECT_DOUBLE_EQ(g.utility({{"x", 0.7}}), 0.0);
}

}  // namespace
}  // namespace sa::core

#include "core/goal.hpp"

#include <gtest/gtest.h>

#include <vector>

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

// Metric values by id; the models below intern their metrics in the order
// their objectives name them.
using Values = std::vector<double>;

TEST(GoalModel, EmptyModelHasZeroUtility) {
  GoalModel g;
  EXPECT_DOUBLE_EQ(g.utility({}), 0.0);
  EXPECT_EQ(g.objectives(), 0u);
  EXPECT_EQ(g.metrics(), 0u);
}

TEST(GoalModel, InternsEachMetricOnce) {
  GoalModel g;
  EXPECT_EQ(g.add_objective("a", utility::rising(0.0, 1.0)), 0u);
  EXPECT_EQ(g.add_objective("b", utility::rising(0.0, 1.0)), 1u);
  EXPECT_EQ(g.add_objective("a", utility::falling(0.0, 1.0)), 0u);
  g.add_constraint("c", 1.0);
  g.add_constraint("b", 1.0);
  ASSERT_EQ(g.metrics(), 3u);
  EXPECT_EQ(g.metric_name(0), "a");
  EXPECT_EQ(g.metric_name(1), "b");
  EXPECT_EQ(g.metric_name(2), "c");
  EXPECT_EQ(g.objectives(), 3u);
  EXPECT_EQ(g.constraints(), 2u);
}

TEST(GoalModel, SingleObjectivePassesThrough) {
  GoalModel g;
  g.add_objective("x", utility::rising(0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(g.utility(Values{5.0}), 0.5);
}

TEST(GoalModel, WeightsBlendObjectives) {
  GoalModel g;
  g.add_objective("a", utility::rising(0.0, 1.0), 3.0);
  g.add_objective("b", utility::rising(0.0, 1.0), 1.0);
  // a=1 (u=1, w=3), b=0 (u=0, w=1) -> 3/4.
  EXPECT_DOUBLE_EQ(g.utility(Values{1.0, 0.0}), 0.75);
}

TEST(GoalModel, MissingMetricScoresZero) {
  GoalModel g;
  g.add_objective("a", utility::rising(0.0, 1.0), 1.0);
  g.add_objective("b", utility::rising(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(g.utility(Values{1.0}), 0.5);  // past the end
  EXPECT_DOUBLE_EQ(g.utility(Values{1.0, kAbsent}), 0.5);
}

TEST(GoalModel, NanMetricReadsAsAbsent) {
  // NaN is "absent": its objective contributes utility 0 and its bound
  // holds, exactly as for a metric past the end of the values.
  GoalModel g;
  g.add_objective("x", utility::falling(0.0, 1.0), 1.0);
  g.add_objective("y", utility::rising(0.0, 1.0), 1.0);
  g.add_constraint("x", 0.5);
  g.add_constraint("y", 0.5);
  const Values m{kAbsent, kAbsent};
  EXPECT_DOUBLE_EQ(g.objective_utility(0, m), 0.0);
  EXPECT_DOUBLE_EQ(g.objective_utility(1, m), 0.0);
  EXPECT_EQ(g.violated(m), 0u);
  EXPECT_TRUE(g.feasible(m));
  EXPECT_DOUBLE_EQ(g.utility(m), 0.0);
  EXPECT_DOUBLE_EQ(g.utility(Values{kAbsent, 0.25}), 0.125);
}

TEST(GoalModel, SetWeightChangesTradeoffAtRuntime) {
  GoalModel g;
  g.add_objective("perf", utility::rising(0.0, 1.0), 1.0);
  g.add_objective("power", utility::falling(0.0, 1.0), 1.0);
  const Values m{1.0, 1.0};  // perf great, power bad
  EXPECT_DOUBLE_EQ(g.utility(m), 0.5);
  ASSERT_TRUE(g.set_weight("power", 3.0));  // stakeholder now cares re power
  EXPECT_DOUBLE_EQ(g.utility(m), 0.25);
}

TEST(GoalModel, SetWeightOnUnknownMetricFails) {
  GoalModel g;
  g.add_objective("x", utility::rising(0.0, 1.0), 1.0);
  g.add_constraint("y", 1.0);  // a metric, but no objective's
  EXPECT_FALSE(g.set_weight("y", 2.0));
  EXPECT_FALSE(g.set_weight("z", 2.0));
}

TEST(GoalModel, HardConstraintZeroesUtility) {
  GoalModel g;
  g.add_objective("x", utility::rising(0.0, 1.0), 1.0);
  g.add_constraint("x", 0.5);
  EXPECT_DOUBLE_EQ(g.utility(Values{0.4}), 0.4);
  EXPECT_DOUBLE_EQ(g.utility(Values{0.5}), 0.5);  // the bound is inclusive
  EXPECT_DOUBLE_EQ(g.utility(Values{0.9}), 0.0);
  EXPECT_FALSE(g.feasible(Values{0.9}));
  EXPECT_TRUE(g.feasible(Values{0.4}));
}

TEST(GoalModel, UtilityIsClampedToUnitInterval) {
  // A negative weight can pull the weighted mean out of [0,1].
  GoalModel g;
  g.add_objective("x", utility::rising(0.0, 1.0), -1.0);
  g.add_objective("y", utility::rising(0.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(g.utility(Values{1.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(g.utility(Values{0.0, 1.0}), 1.0);
}

TEST(GoalModel, ViolatedCountsEveryBrokenConstraint) {
  GoalModel g;
  g.add_constraint("a", 0.0);
  g.add_constraint("a", 2.0);
  g.add_constraint("b", 0.0);
  EXPECT_EQ(g.violated(Values{1.0, 1.0}), 2u);
  EXPECT_EQ(g.violated({}), 0u);  // absent metrics satisfy every bound
}

TEST(GoalModel, BreakdownReportsPerObjective) {
  GoalModel g;
  g.add_objective("a", utility::rising(0.0, 1.0), 1.0);
  g.add_objective("b", utility::falling(0.0, 1.0), 2.0);
  const Values m{0.25, 0.25};
  ASSERT_EQ(g.objectives(), 2u);
  EXPECT_EQ(g.metric_name(g.objective_metric(0)), "a");
  EXPECT_EQ(g.metric_name(g.objective_metric(1)), "b");
  EXPECT_DOUBLE_EQ(g.objective_utility(0, m), 0.25);
  EXPECT_DOUBLE_EQ(g.objective_utility(1, m), 0.75);
  EXPECT_DOUBLE_EQ(g.objective_utility(0, {}), 0.0);  // metric missing
}

TEST(GoalModel, DominatesRequiresStrictImprovement) {
  GoalModel g;
  g.add_objective("a", utility::rising(0.0, 1.0), 1.0);
  g.add_objective("b", utility::rising(0.0, 1.0), 1.0);
  const Values x{0.8, 0.8};
  const Values y{0.5, 0.8};
  EXPECT_TRUE(g.dominates(x, y));
  EXPECT_FALSE(g.dominates(y, x));
  EXPECT_FALSE(g.dominates(x, x));  // equal: no strict improvement
}

TEST(GoalModel, DominatesFailsOnTradeOff) {
  GoalModel g;
  g.add_objective("a", utility::rising(0.0, 1.0), 1.0);
  g.add_objective("b", utility::rising(0.0, 1.0), 1.0);
  const Values x{0.9, 0.1};
  const Values y{0.1, 0.9};
  EXPECT_FALSE(g.dominates(x, y));
  EXPECT_FALSE(g.dominates(y, x));
}

}  // namespace
}  // namespace sa::core

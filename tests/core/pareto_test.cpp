#include "core/pareto.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace sa::core {
namespace {

GoalModel two_objectives() {
  GoalModel g;
  g.add_objective("perf", utility::rising(0.0, 10.0), 1.0);
  g.add_objective("power", utility::falling(0.0, 10.0), 1.0);
  return g;
}

std::vector<ParetoPoint> sample_points() {
  // (perf, power): a is strong-but-hungry, c is weak-but-frugal, b is a
  // balanced efficient point, d is strictly worse than b, e equals a.
  return {{"a", {9.0, 8.0}},
          {"b", {6.0, 4.0}},
          {"c", {2.0, 1.0}},
          {"d", {5.0, 5.0}},
          {"e", {9.0, 8.0}}};
}

TEST(Pareto, FrontContainsAllEfficientPoints) {
  const auto g = two_objectives();
  const auto front = pareto_front(g, sample_points());
  // a, b, c are efficient; d is dominated by b; e ties with a (kept).
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 2, 4}));
}

TEST(Pareto, IsDominatedAgreesWithFront) {
  const auto g = two_objectives();
  const auto points = sample_points();
  EXPECT_FALSE(is_dominated(g, points, 0));
  EXPECT_FALSE(is_dominated(g, points, 1));
  EXPECT_FALSE(is_dominated(g, points, 2));
  EXPECT_TRUE(is_dominated(g, points, 3));
}

TEST(Pareto, SinglePointIsItsOwnFront) {
  const auto g = two_objectives();
  const std::vector<ParetoPoint> one{{"only", {1.0}}};
  EXPECT_EQ(pareto_front(g, one), std::vector<std::size_t>{0});
}

TEST(Pareto, TotallyOrderedChainLeavesOneSurvivor) {
  GoalModel g;
  g.add_objective("x", utility::rising(0.0, 10.0), 1.0);
  std::vector<ParetoPoint> chain;
  for (int i = 0; i < 5; ++i) {
    chain.push_back({std::string("p").append(std::to_string(i)),
                     {static_cast<double>(i)}});
  }
  EXPECT_EQ(pareto_front(g, chain), std::vector<std::size_t>{4});
}

TEST(Pareto, UtilityArgmaxLiesOnTheFront) {
  const auto g = two_objectives();
  const auto points = sample_points();
  const auto best = utility_argmax(g, points);
  const auto front = pareto_front(g, points);
  EXPECT_NE(std::find(front.begin(), front.end(), best), front.end());
}

TEST(Pareto, GoalReweightingMovesAlongTheFrontNotOffIt) {
  // The E11 mechanism in miniature: changing stakeholder weights changes
  // the chosen point but the efficient set itself is weight-independent.
  auto g = two_objectives();
  const auto points = sample_points();
  const auto front_before = pareto_front(g, points);

  g.set_weight("perf", 10.0);  // performance-hungry stakeholder
  const auto perf_pick = utility_argmax(g, points);
  g.set_weight("perf", 1.0);
  g.set_weight("power", 10.0);  // battery-saving stakeholder
  const auto power_pick = utility_argmax(g, points);

  EXPECT_EQ(pareto_front(g, points), front_before);
  EXPECT_NE(perf_pick, power_pick);
  EXPECT_EQ(points[perf_pick].label, "a");   // or e; argmax takes first
  EXPECT_EQ(points[power_pick].label, "c");
}

}  // namespace
}  // namespace sa::core

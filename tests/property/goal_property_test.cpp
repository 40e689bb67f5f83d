// Property tests on the goal model's algebraic guarantees, swept over
// random objective sets and metric points.
#include <gtest/gtest.h>

#include <vector>

#include "core/goal.hpp"
#include "sim/rng.hpp"

namespace sa::core {
namespace {

class GoalPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

GoalModel random_goals(sim::Rng& rng) {
  GoalModel g;
  const std::size_t n = 1 + rng.below(4);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0.0, 50.0);
    const double b = a + rng.uniform(0.1, 50.0);
    UtilityFn fn;
    switch (rng.below(3)) {
      case 0: fn = utility::rising(a, b); break;
      case 1: fn = utility::falling(a, b); break;
      default: fn = utility::target((a + b) / 2.0, (b - a) / 2.0); break;
    }
    g.add_objective(std::string("m").append(std::to_string(i)), fn,
                    rng.uniform(0.1, 5.0));
  }
  return g;
}

std::vector<double> random_point(sim::Rng& rng, const GoalModel& g) {
  std::vector<double> m(g.metrics());
  for (double& v : m) v = rng.uniform(-20.0, 120.0);
  return m;
}

TEST_P(GoalPropertyTest, UtilityAlwaysInUnitInterval) {
  sim::Rng rng(GetParam());
  const auto g = random_goals(rng);
  for (int i = 0; i < 500; ++i) {
    const double u = g.utility(random_point(rng, g));
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST_P(GoalPropertyTest, DominanceIsIrreflexiveAndAsymmetric) {
  sim::Rng rng(GetParam());
  const auto g = random_goals(rng);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_point(rng, g);
    const auto b = random_point(rng, g);
    EXPECT_FALSE(g.dominates(a, a));
    EXPECT_FALSE(g.dominates(a, b) && g.dominates(b, a));
  }
}

TEST_P(GoalPropertyTest, DominanceIsTransitiveOnSampledTriples) {
  sim::Rng rng(GetParam());
  const auto g = random_goals(rng);
  int checked = 0;
  for (int i = 0; i < 2000 && checked < 50; ++i) {
    const auto a = random_point(rng, g);
    const auto b = random_point(rng, g);
    const auto c = random_point(rng, g);
    if (g.dominates(a, b) && g.dominates(b, c)) {
      EXPECT_TRUE(g.dominates(a, c));
      ++checked;
    }
  }
}

TEST_P(GoalPropertyTest, DominatingPointHasAtLeastEqualRawUtility) {
  // Scalarisation is consistent with the partial order: if a dominates b,
  // every weighted mean of per-objective utilities favours a.
  sim::Rng rng(GetParam());
  const auto g = random_goals(rng);
  for (int i = 0; i < 500; ++i) {
    const auto a = random_point(rng, g);
    const auto b = random_point(rng, g);
    if (g.dominates(a, b)) {
      EXPECT_GE(g.utility(a) + 1e-12, g.utility(b));
    }
  }
}

TEST_P(GoalPropertyTest, MissingMetricNeverBeatsBestPossible) {
  sim::Rng rng(GetParam());
  const auto g = random_goals(rng);
  // Dropping a metric can only remove that objective's contribution.
  for (int i = 0; i < 200; ++i) {
    auto full = random_point(rng, g);
    auto partial = full;
    partial[0] = kAbsent;
    const double u_partial = g.utility(partial);
    EXPECT_GE(u_partial, 0.0);
    EXPECT_LE(u_partial, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoalPropertyTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace sa::core

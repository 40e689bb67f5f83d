#include "core/collective.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <ostream>
#include <string>

namespace sa::core {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

double mean_of(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

struct NamedFactory {
  std::string label;
  std::function<std::unique_ptr<CollectiveAggregator>(std::size_t)> make;
};

// Test names print the label; gtest's default byte dump would embed heap
// addresses and change from run to run.
void PrintTo(const NamedFactory& f, std::ostream* os) { *os << f.label; }

class AnyAggregatorTest : public ::testing::TestWithParam<NamedFactory> {};

/// Property: every aggregator converges every live node to the true mean.
TEST_P(AnyAggregatorTest, ConvergesToGlobalMean) {
  const std::size_t n = 16;
  auto agg = GetParam().make(n);
  const auto values = ramp(n);
  agg->reset(values);
  sim::Rng rng(1);
  for (int round = 0; round < 60; ++round) agg->round(rng);
  EXPECT_LT(agg->max_error(mean_of(values)), 0.05) << GetParam().label;
}

TEST_P(AnyAggregatorTest, MeanErrorBelowMaxError) {
  const std::size_t n = 12;
  auto agg = GetParam().make(n);
  agg->reset(ramp(n));
  sim::Rng rng(2);
  for (int round = 0; round < 10; ++round) agg->round(rng);
  const double truth = mean_of(ramp(n));
  EXPECT_LE(agg->mean_error(truth), agg->max_error(truth) + 1e-12);
}

TEST_P(AnyAggregatorTest, RoundsReportMessages) {
  auto agg = GetParam().make(8);
  agg->reset(ramp(8));
  sim::Rng rng(3);
  EXPECT_GT(agg->round(rng), 0u);
}

TEST_P(AnyAggregatorTest, NodesAccessor) {
  EXPECT_EQ(GetParam().make(5)->nodes(), 5u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregators, AnyAggregatorTest,
    ::testing::Values(
        NamedFactory{"central",
                     [](std::size_t n) {
                       return std::make_unique<CentralAggregator>(n);
                     }},
        NamedFactory{"gossip",
                     [](std::size_t n) {
                       return std::make_unique<GossipAggregator>(n);
                     }},
        NamedFactory{"hierarchy",
                     [](std::size_t n) {
                       return std::make_unique<HierarchyAggregator>(n);
                     }}),
    [](const auto& info) { return info.param.label; });

TEST(CentralAggregator, ConvergesInOneRound) {
  CentralAggregator agg(8);
  agg.reset(ramp(8));
  sim::Rng rng(4);
  agg.round(rng);
  EXPECT_NEAR(agg.estimate(3), 4.5, 1e-12);
}

TEST(CentralAggregator, CoordinatorFailureBlindsEveryone) {
  CentralAggregator agg(8);
  agg.reset(ramp(8));
  sim::Rng rng(5);
  agg.round(rng);
  agg.fail_node(0);  // the single point of failure
  EXPECT_EQ(agg.round(rng), 0u);  // nothing moves any more
}

TEST(CentralAggregator, FollowerFailureOnlyShiftsTheMean) {
  CentralAggregator agg(4);
  agg.reset({1.0, 2.0, 3.0, 10.0});
  sim::Rng rng(6);
  agg.fail_node(3);
  agg.round(rng);
  EXPECT_NEAR(agg.estimate(0), 2.0, 1e-12);  // mean of live {1,2,3}
}

TEST(GossipAggregator, SurvivesCoordinatorlessFailures) {
  GossipAggregator agg(16);
  agg.reset(ramp(16));
  sim::Rng rng(7);
  // Kill a quarter of the nodes; the rest still converge to the mean of
  // the surviving mass (approximately — the dead nodes' shares freeze).
  agg.fail_node(0);
  agg.fail_node(5);
  agg.fail_node(9);
  agg.fail_node(13);
  for (int round = 0; round < 80; ++round) agg.round(rng);
  // All live nodes agree with each other (consensus), even if the frozen
  // shares shift the value slightly.
  double lo = 1e300, hi = -1e300;
  for (std::size_t i = 0; i < agg.nodes(); ++i) {
    if (!agg.alive(i)) continue;
    lo = std::min(lo, agg.estimate(i));
    hi = std::max(hi, agg.estimate(i));
  }
  EXPECT_LT(hi - lo, 0.1);
}

TEST(GossipAggregator, WeightConservationGivesUnbiasedMean) {
  GossipAggregator agg(10);
  agg.reset(ramp(10));
  sim::Rng rng(8);
  for (int round = 0; round < 100; ++round) agg.round(rng);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(agg.estimate(i), 5.5, 0.01);
  }
}

TEST(HierarchyAggregator, ConvergesInOneFullSweep) {
  HierarchyAggregator agg(15, 2);
  agg.reset(ramp(15));
  sim::Rng rng(9);
  agg.round(rng);
  EXPECT_NEAR(agg.estimate(14), 8.0, 1e-12);
}

TEST(HierarchyAggregator, InteriorFailurePartitionsSubtree) {
  HierarchyAggregator agg(15, 2);  // node 1's subtree: 3,4,7,8,9,10
  agg.reset(ramp(15));
  sim::Rng rng(10);
  agg.round(rng);
  const double before = agg.estimate(7);
  agg.fail_node(1);
  agg.round(rng);
  // Node 7 is cut off: its estimate froze.
  EXPECT_DOUBLE_EQ(agg.estimate(7), before);
  // The surviving part re-averages without the lost subtree.
  EXPECT_NE(agg.estimate(2), before);
}

TEST(HierarchyAggregator, DepthIsLogarithmic) {
  EXPECT_EQ(HierarchyAggregator(1, 2).depth(), 0u);
  EXPECT_EQ(HierarchyAggregator(3, 2).depth(), 1u);
  EXPECT_EQ(HierarchyAggregator(7, 2).depth(), 2u);
  EXPECT_EQ(HierarchyAggregator(15, 2).depth(), 3u);
  EXPECT_EQ(HierarchyAggregator(13, 3).depth(), 2u);
}

TEST(Aggregators, NamesAreDistinct) {
  EXPECT_EQ(CentralAggregator(2).name(), "central");
  EXPECT_EQ(GossipAggregator(2).name(), "gossip");
  EXPECT_EQ(HierarchyAggregator(2).name(), "hierarchy");
}

}  // namespace
}  // namespace sa::core

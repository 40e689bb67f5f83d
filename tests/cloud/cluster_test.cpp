#include "cloud/cluster.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace sa::cloud {
namespace {

Cluster::Params small_params() {
  Cluster::Params p;
  p.nodes = 10;
  p.seed = 3;
  return p;
}

std::vector<std::size_t> natural_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  return order;
}

TEST(DemandModel, BaseRateWithoutModifiers) {
  DemandModel::Params p;
  p.base = 50.0;
  p.diurnal_amp = 0.0;
  p.burst_prob = 0.0;
  DemandModel dm(p);
  sim::Rng rng(1);
  EXPECT_NEAR(dm.rate(0.0, 10.0, rng), 50.0, 1e-9);
  EXPECT_NEAR(dm.rate(500.0, 10.0, rng), 50.0, 1e-9);
}

TEST(DemandModel, DiurnalOscillates) {
  DemandModel::Params p;
  p.base = 100.0;
  p.diurnal_amp = 0.5;
  p.period_s = 100.0;
  p.burst_prob = 0.0;
  DemandModel dm(p);
  sim::Rng rng(2);
  EXPECT_NEAR(dm.rate(25.0, 10.0, rng), 150.0, 1e-6);  // sine peak
  EXPECT_NEAR(dm.rate(75.0, 10.0, rng), 50.0, 1e-6);   // sine trough
}

TEST(DemandModel, BurstsMultiplyDemand) {
  DemandModel::Params p;
  p.base = 10.0;
  p.diurnal_amp = 0.0;
  p.burst_prob = 1.0;  // always bursting
  p.burst_mult = 3.0;
  DemandModel dm(p);
  sim::Rng rng(3);
  EXPECT_NEAR(dm.rate(0.0, 10.0, rng), 30.0, 1e-9);
  EXPECT_TRUE(dm.bursting());
}

TEST(Cluster, NodesAreHeterogeneous) {
  Cluster c(small_params());
  double min_cap = 1e9, max_cap = 0.0, min_mttf = 1e18, max_mttf = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    min_cap = std::min(min_cap, c.node(i).capacity);
    max_cap = std::max(max_cap, c.node(i).capacity);
    min_mttf = std::min(min_mttf, c.node(i).mttf_s);
    max_mttf = std::max(max_mttf, c.node(i).mttf_s);
  }
  EXPECT_GT(max_cap, min_cap * 1.2);
  EXPECT_GT(max_mttf, min_mttf * 2.0);
}

TEST(Cluster, EnrolSelectsExactlyK) {
  Cluster c(small_params());
  c.enrol(natural_order(10), 4);
  std::size_t enrolled = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    enrolled += c.node(i).enrolled ? 1 : 0;
  }
  EXPECT_EQ(enrolled, 4u);
  EXPECT_TRUE(c.node(0).enrolled);
  EXPECT_FALSE(c.node(9).enrolled);
}

TEST(Cluster, ReEnrolReleasesPrevious) {
  Cluster c(small_params());
  c.enrol(natural_order(10), 8);
  c.enrol(natural_order(10), 2);
  std::size_t enrolled = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    enrolled += c.node(i).enrolled ? 1 : 0;
  }
  EXPECT_EQ(enrolled, 2u);
}

TEST(Cluster, ZeroEnrolmentServesNothing) {
  Cluster c(small_params());
  c.enrol(natural_order(10), 0);
  const auto e = c.run_epoch(20.0);
  EXPECT_DOUBLE_EQ(e.served, 0.0);
  EXPECT_DOUBLE_EQ(e.capacity, 0.0);
  EXPECT_LT(e.sla, 0.01);
}

TEST(Cluster, AmpleCapacityMeetsAllDemand) {
  auto p = small_params();
  p.mttf_mean_s = 1e9;  // effectively always up
  Cluster c(p);
  c.enrol(natural_order(10), 10);
  const auto e = c.run_epoch(5.0);  // tiny demand vs ~100 req/s capacity
  EXPECT_NEAR(e.sla, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(e.dropped, 0.0);
  EXPECT_DOUBLE_EQ(e.backlog, 0.0);
}

TEST(Cluster, OverloadBuildsBacklogThenDrops) {
  auto p = small_params();
  p.queue_bound = 50.0;
  Cluster c(p);
  c.enrol(natural_order(10), 1);
  CloudEpoch e{};
  for (int i = 0; i < 10; ++i) e = c.run_epoch(200.0);
  EXPECT_GT(e.dropped, 0.0);
  EXPECT_NEAR(e.backlog, 50.0, 1e-6);  // pinned at the bound
  EXPECT_LT(e.sla, 0.5);
}

TEST(Cluster, CostScalesWithEnrolment) {
  Cluster a(small_params()), b(small_params());
  a.enrol(natural_order(10), 2);
  b.enrol(natural_order(10), 8);
  EXPECT_LT(a.run_epoch(10.0).cost, b.run_epoch(10.0).cost);
}

TEST(Cluster, OutcomesCoverEnrolledNodes) {
  Cluster c(small_params());
  c.enrol(natural_order(10), 5);
  c.run_epoch(10.0);
  EXPECT_EQ(c.last_outcomes().size(), 5u);
  for (const auto& o : c.last_outcomes()) {
    EXPECT_LT(o.index, 5u);
    EXPECT_GE(o.delivered, 0.0);
  }
}

TEST(Cluster, UnreliableNodesEventuallyFail) {
  auto p = small_params();
  p.mttf_mean_s = 5.0;  // very flaky population
  p.mttr_mean_s = 100.0;
  Cluster c(p);
  c.enrol(natural_order(10), 10);
  std::size_t failures = 0;
  for (int i = 0; i < 30; ++i) {
    c.run_epoch(10.0);
    for (const auto& o : c.last_outcomes()) {
      failures += o.stayed_up ? 0 : 1;
    }
  }
  EXPECT_GT(failures, 10u);
}

TEST(Cluster, TimeAdvancesPerEpoch) {
  Cluster c(small_params());
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.run_epoch(1.0);
  EXPECT_DOUBLE_EQ(c.now(), 10.0);
  c.run_epoch(1.0);
  EXPECT_DOUBLE_EQ(c.now(), 20.0);
}

TEST(Cluster, DeterministicGivenSeed) {
  Cluster a(small_params()), b(small_params());
  a.enrol(natural_order(10), 5);
  b.enrol(natural_order(10), 5);
  for (int i = 0; i < 10; ++i) {
    const auto ea = a.run_epoch(30.0);
    const auto eb = b.run_epoch(30.0);
    EXPECT_DOUBLE_EQ(ea.served, eb.served);
    EXPECT_DOUBLE_EQ(ea.capacity, eb.capacity);
  }
}

TEST(Cluster, UtilisationClamped) {
  Cluster c(small_params());
  c.enrol(natural_order(10), 1);
  const auto e = c.run_epoch(1000.0);
  EXPECT_LE(e.utilisation, 1.0);
  EXPECT_GE(e.utilisation, 0.0);
}

}  // namespace
}  // namespace sa::cloud

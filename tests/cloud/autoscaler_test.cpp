#include "cloud/autoscaler.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"

namespace sa::cloud {
namespace {

struct Rig {
  Cluster cluster;
  DemandModel demand;
  explicit Rig(std::uint64_t seed = 5, double base_rate = 60.0)
      : cluster(make_cluster(seed)), demand(make_demand(base_rate)) {}

  static Cluster make_cluster(std::uint64_t seed) {
    Cluster::Params p;
    p.nodes = 24;
    p.seed = seed;
    return Cluster(p);
  }
  static DemandModel make_demand(double base) {
    DemandModel::Params p;
    p.base = base;
    p.diurnal_amp = 0.3;
    p.burst_prob = 0.0;
    return DemandModel(p);
  }
};

Autoscaler::Params params_for(Autoscaler::Variant v) {
  Autoscaler::Params p;
  p.variant = v;
  p.seed = 5;
  return p;
}

TEST(Autoscaler, VariantNames) {
  EXPECT_STREQ(Autoscaler::variant_name(Autoscaler::Variant::Static),
               "static");
  EXPECT_STREQ(Autoscaler::variant_name(Autoscaler::Variant::Reactive),
               "reactive");
  EXPECT_STREQ(Autoscaler::variant_name(Autoscaler::Variant::SelfAware),
               "self-aware");
}

class AutoscalerVariantTest
    : public ::testing::TestWithParam<Autoscaler::Variant> {};

TEST_P(AutoscalerVariantTest, RunsAndAccumulates) {
  Rig rig;
  Autoscaler as(rig.cluster, rig.demand, params_for(GetParam()));
  for (int i = 0; i < 30; ++i) {
    const auto e = as.run_epoch();
    EXPECT_GE(e.sla, 0.0);
    EXPECT_LE(e.sla, 1.0);
  }
  EXPECT_EQ(as.sla().count(), 30u);
  EXPECT_GE(as.sla_violation_rate(), 0.0);
  EXPECT_LE(as.sla_violation_rate(), 1.0);
}

TEST_P(AutoscalerVariantTest, TargetStaysWithinClusterBounds) {
  Rig rig;
  Autoscaler as(rig.cluster, rig.demand, params_for(GetParam()));
  for (int i = 0; i < 40; ++i) {
    as.run_epoch();
    EXPECT_LE(as.target(), rig.cluster.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, AutoscalerVariantTest,
                         ::testing::Values(Autoscaler::Variant::Static,
                                           Autoscaler::Variant::Reactive,
                                           Autoscaler::Variant::SelfAware),
                         [](const auto& info) {
                           std::string n = Autoscaler::variant_name(info.param);
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(Autoscaler, StaticNeverRescales) {
  Rig rig;
  auto p = params_for(Autoscaler::Variant::Static);
  p.initial_nodes = 9;
  Autoscaler as(rig.cluster, rig.demand, p);
  for (int i = 0; i < 20; ++i) as.run_epoch();
  EXPECT_EQ(as.target(), 9u);
}

TEST(Autoscaler, ReactiveScalesOutUnderSlaPressure) {
  Rig rig(7, /*base_rate=*/200.0);  // demand far above 4 nodes' capacity
  auto p = params_for(Autoscaler::Variant::Reactive);
  p.initial_nodes = 4;
  Autoscaler as(rig.cluster, rig.demand, p);
  for (int i = 0; i < 15; ++i) as.run_epoch();
  EXPECT_GT(as.target(), 4u);
}

TEST(Autoscaler, ReactiveScalesInWhenIdle) {
  Rig rig(8, /*base_rate=*/1.0);  // nearly no demand
  auto p = params_for(Autoscaler::Variant::Reactive);
  p.initial_nodes = 20;
  Autoscaler as(rig.cluster, rig.demand, p);
  for (int i = 0; i < 30; ++i) as.run_epoch();
  EXPECT_LT(as.target(), 20u);
}

TEST(Autoscaler, SelfAwareTracksDemand) {
  Rig rig(9, /*base_rate=*/120.0);
  auto p = params_for(Autoscaler::Variant::SelfAware);
  p.initial_nodes = 2;  // start under-provisioned
  Autoscaler as(rig.cluster, rig.demand, p);
  sim::RunningStats tail_sla;
  for (int i = 0; i < 80; ++i) {
    const auto e = as.run_epoch();
    if (i >= 40) tail_sla.add(e.sla);  // judge after the cold start
  }
  EXPECT_GT(as.target(), 4u);        // scaled out towards demand
  EXPECT_GT(tail_sla.mean(), 0.5);   // and actually serves most of it
}

TEST(Autoscaler, SelfAwareLearnsNodeReliability) {
  Rig rig(10);
  Autoscaler as(rig.cluster, rig.demand,
                params_for(Autoscaler::Variant::SelfAware));
  for (int i = 0; i < 60; ++i) as.run_epoch();
  auto* ia = as.agent().interaction();
  ASSERT_NE(ia, nullptr);
  EXPECT_FALSE(ia->peers().empty());
  // At least one enrolled node should have accumulated evidence.
  bool some_evidence = false;
  for (const auto& peer : ia->peers()) {
    if (ia->interactions(peer) >= 10) some_evidence = true;
  }
  EXPECT_TRUE(some_evidence);
}

TEST(Autoscaler, BindReproducesRunEpochLoop) {
  // The autoscaler bound to an engine (one control event per cluster epoch)
  // must follow the same trajectory as the synchronous loop.
  Rig a(7), b(7);
  Autoscaler legacy(a.cluster, a.demand,
                    params_for(Autoscaler::Variant::SelfAware));
  sim::RunningStats legacy_sla;
  for (int i = 0; i < 30; ++i) legacy_sla.add(legacy.run_epoch().sla);

  Autoscaler bound(b.cluster, b.demand,
                   params_for(Autoscaler::Variant::SelfAware));
  sim::Engine engine;
  sim::RunningStats bound_sla;
  bound.bind(engine, 0.0, [&](const CloudEpoch& e) { bound_sla.add(e.sla); });
  engine.run_until(30.0 * b.cluster.epoch_seconds());

  ASSERT_EQ(bound_sla.count(), 30u);
  EXPECT_DOUBLE_EQ(bound_sla.mean(), legacy_sla.mean());
  EXPECT_EQ(bound.target(), legacy.target());
}

TEST(Autoscaler, TelemetryRecordsEpochsAndFailures) {
  sim::TelemetryBus bus;
  Rig rig(8);
  auto p = params_for(Autoscaler::Variant::SelfAware);
  p.telemetry = &bus;
  Autoscaler as(rig.cluster, rig.demand, p);
  for (int i = 0; i < 30; ++i) as.run_epoch();
  // One cluster SLA observation per epoch plus the agent's own sampling.
  EXPECT_GE(bus.count(sim::TelemetryBus::kObservation), 30u);
  EXPECT_GT(bus.count(sim::TelemetryBus::kDecision), 0u);
  // With 24 churning nodes over 30 epochs, some went down mid-epoch.
  EXPECT_GT(bus.count(sim::TelemetryBus::kFailure), 0u);
}

TEST(Autoscaler, UtilityBlendsSlaAndCost) {
  Rig rig(11);
  Autoscaler as(rig.cluster, rig.demand,
                params_for(Autoscaler::Variant::Static));
  for (int i = 0; i < 10; ++i) as.run_epoch();
  EXPECT_GT(as.utility().mean(), 0.0);
  EXPECT_LE(as.utility().mean(), 1.0);
  EXPECT_GT(as.cost().mean(), 0.0);
}

}  // namespace
}  // namespace sa::cloud

// Integration tests: whole-system scenarios crossing module boundaries.
// These are slower than unit tests but still bounded (< ~1 s each); they
// pin down the end-to-end properties the benches rely on.
#include <gtest/gtest.h>

#include <cmath>

#include "cloud/autoscaler.hpp"
#include "core/runtime.hpp"
#include "cpn/network.hpp"
#include "cpn/traffic.hpp"
#include "multicore/manager.hpp"
#include "multicore/workload.hpp"
#include "svc/fleet.hpp"

namespace {

using namespace sa;

TEST(Integration, MulticoreRunIsBitwiseDeterministic) {
  auto run = [] {
    multicore::Platform platform(
        multicore::PlatformConfig::big_little(2, 4), 99);
    auto workload = multicore::PhasedWorkload::standard();
    multicore::Manager::Params p;
    p.seed = 99;
    multicore::Manager mgr(platform, p);
    std::vector<double> utilities;
    for (int i = 0; i < 120; ++i) {
      workload.apply(platform);
      utilities.push_back(mgr.run_epoch());
    }
    return utilities;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "diverged at epoch " << i;
  }
}

TEST(Integration, MulticoreManagerNeverProducesNaN) {
  multicore::Platform platform(multicore::PlatformConfig::big_little(2, 4),
                               7);
  auto workload = multicore::PhasedWorkload::standard();
  multicore::Manager mgr(platform, {});
  for (int i = 0; i < 200; ++i) {
    workload.apply(platform);
    const double u = mgr.run_epoch();
    ASSERT_FALSE(std::isnan(u));
    ASSERT_FALSE(std::isnan(mgr.last_stats().mean_power));
    ASSERT_FALSE(std::isnan(mgr.last_stats().p95_latency));
  }
}

TEST(Integration, AutoscalerLongRunInvariants) {
  cloud::Cluster::Params cp;
  cp.nodes = 20;
  cp.boot_s = 10.0;
  cp.seed = 5;
  cloud::Cluster cluster(cp);
  cloud::DemandModel demand;
  cloud::Autoscaler::Params ap;
  ap.seed = 5;
  cloud::Autoscaler as(cluster, demand, ap);
  for (int e = 0; e < 300; ++e) {
    const auto ep = as.run_epoch();
    ASSERT_LE(as.target(), cluster.size());
    ASSERT_GE(ep.sla, 0.0);
    ASSERT_LE(ep.sla, 1.0);
    ASSERT_GE(ep.cost, 0.0);
    ASSERT_FALSE(std::isnan(ep.capacity));
  }
  // Something was actually served over the run.
  EXPECT_GT(as.sla().mean(), 0.2);
}

TEST(Integration, CpnRecoversAfterAttack) {
  const auto topo = cpn::Topology::grid(4, 6, 4, 77);
  cpn::PacketNetwork::Params np;
  np.router = cpn::PacketNetwork::Router::QRouting;
  np.dos_defence = true;
  np.seed = 77;
  cpn::PacketNetwork net(topo, np);
  cpn::TrafficParams tp;
  tp.attack_start = 2000.0;
  tp.attack_end = 4000.0;
  tp.seed = 77;
  cpn::TrafficGenerator gen(topo, tp);

  auto window = [&](int ticks) {
    for (int i = 0; i < ticks; ++i) {
      gen.tick(net);
      net.step();
    }
    return net.harvest();
  };
  const auto before = window(2000);
  window(2000);  // the attack itself
  const auto after = window(2000);
  EXPECT_GT(after.delivery_rate(), 0.95);
  EXPECT_LT(after.mean_latency, 2.0 * before.mean_latency);
}

TEST(Integration, CameraFleetHoldsCoverageWhileCuttingMessages) {
  svc::NetworkParams world;
  world.seed = 41;
  auto net = svc::Network::clustered_layout(world);
  svc::CameraFleet::Params p;
  p.seed = 41;
  svc::CameraFleet fleet(net, p);
  sim::RunningStats early_msgs, late_msgs, late_cov;
  for (int e = 0; e < 200; ++e) {
    const auto ne = fleet.run_epoch();
    if (e < 40) early_msgs.add(ne.messages);
    if (e >= 160) {
      late_msgs.add(ne.messages);
      late_cov.add(ne.coverage);
    }
  }
  EXPECT_GT(late_cov.mean(), 0.5);
  // Learning should not leave the fleet stuck in permanent all-broadcast.
  EXPECT_LT(late_msgs.mean(), 300.0);
}

TEST(Integration, RuntimeDrivesManagerAgentsOnTheEngine) {
  // Two thermostat-style agents at different control periods sharing
  // knowledge through the runtime — the multi-agent glue end to end.
  sim::Engine engine;
  core::AgentRuntime rt(engine);
  double temp = 10.0;
  core::AgentConfig cfg;
  cfg.seed = 8;
  core::SelfAwareAgent sensor_agent("sensornode", cfg);
  core::SelfAwareAgent display_agent("display", cfg);
  sensor_agent.add_sensor("temp", [&] { return temp; });
  rt.schedule(sensor_agent, 0.5);
  rt.schedule(display_agent, 2.0);
  rt.schedule_exchange({&sensor_agent, &display_agent}, 1.0);
  engine.at(25.0, [&] { temp = 30.0; });
  engine.run_until(50.0);

  EXPECT_EQ(sensor_agent.steps(), 100u);
  EXPECT_EQ(display_agent.steps(), 25u);
  // The display learned the latest temperature it never sensed itself.
  const core::KnowledgeBase& seen = display_agent.knowledge();
  EXPECT_DOUBLE_EQ(seen.number(seen.find("shared.sensornode.temp")), 30.0);
}

}  // namespace

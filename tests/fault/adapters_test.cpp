// Adapter behaviour: every substrate binding must translate (unit,
// magnitude) faults into the substrate's fault surface, and must
// reference-count overlapping transients so restores never resurrect a
// unit another fault still holds down. Tests drive the registered
// surfaces' begin/end actuators directly (Injector::surface()).
#include "fault/adapters.hpp"

#include <gtest/gtest.h>

#include <cstddef>

#include "cloud/cluster.hpp"
#include "cpn/network.hpp"
#include "core/agent.hpp"
#include "core/runtime.hpp"
#include "fault/fault.hpp"
#include "multicore/platform.hpp"
#include "sim/engine.hpp"
#include "svc/network.hpp"

namespace sa::fault {
namespace {

TEST(PlatformAdapter, CoreFailIsRefCountedCrashRestart) {
  multicore::Platform platform(multicore::PlatformConfig::big_little(2, 2), 1);
  Injector inj;
  bind_platform(inj, platform);
  ASSERT_EQ(inj.surfaces(), 2u);
  const auto& core_fail = inj.surface(0);
  EXPECT_EQ(core_fail.kind, FaultKind::CoreFail);
  EXPECT_EQ(core_fail.units, platform.cores());

  core_fail.begin(0, 1.0);
  EXPECT_TRUE(platform.core_failed(0));
  core_fail.begin(0, 1.0);  // overlapping second fault on the same core
  core_fail.end(0, 1.0);
  EXPECT_TRUE(platform.core_failed(0));  // first restore must not revive it
  core_fail.end(0, 1.0);
  EXPECT_FALSE(platform.core_failed(0));
}

TEST(PlatformAdapter, FreqCapTracksTheTightestActiveCap) {
  multicore::Platform platform(multicore::PlatformConfig::big_little(2, 2), 1);
  Injector inj;
  bind_platform(inj, platform);
  const auto& cap = inj.surface(1);
  EXPECT_EQ(cap.kind, FaultKind::FreqCap);

  cap.begin(0, 3.0);
  EXPECT_EQ(platform.freq_cap(), 3u);
  cap.begin(0, 1.0);  // tighter cap arrives while the first is active
  EXPECT_EQ(platform.freq_cap(), 1u);
  // The tightest cap restores first: relax to the loosest still-active
  // cap, not all the way and not stuck at the old tightest level.
  cap.end(0, 1.0);
  EXPECT_EQ(platform.freq_cap(), 3u);
  cap.end(0, 3.0);
  EXPECT_EQ(platform.freq_cap(), static_cast<std::size_t>(-1));
}

TEST(CameraAdapter, CrashDropoutAndBlurCompose) {
  auto net = svc::Network::clustered_layout(svc::NetworkParams{});
  Injector inj;
  bind_cameras(inj, net);
  ASSERT_EQ(inj.surfaces(), 3u);
  const auto& crash = inj.surface(0);
  const auto& dropout = inj.surface(1);
  const auto& blur = inj.surface(2);
  EXPECT_EQ(crash.kind, FaultKind::NodeCrash);
  EXPECT_EQ(dropout.kind, FaultKind::SensorDropout);
  EXPECT_EQ(blur.kind, FaultKind::SensorBlur);

  crash.begin(0, 1.0);
  EXPECT_TRUE(net.camera_failed(0));
  crash.end(0, 1.0);
  EXPECT_FALSE(net.camera_failed(0));

  // Blur scales visibility by 1 - magnitude...
  blur.begin(1, 0.75);
  EXPECT_DOUBLE_EQ(net.sensor_blur(1), 0.25);
  // ...dropout overrides any blur while it is active...
  dropout.begin(1, 1.0);
  EXPECT_DOUBLE_EQ(net.sensor_blur(1), 0.0);
  dropout.end(1, 1.0);
  // ...and the surviving blur resumes when the dropout ends.
  EXPECT_DOUBLE_EQ(net.sensor_blur(1), 0.25);
  blur.end(1, 0.75);
  EXPECT_DOUBLE_EQ(net.sensor_blur(1), 1.0);
}

TEST(ClusterAdapter, PreemptionAndLatencySpikes) {
  cloud::Cluster cluster{cloud::Cluster::Params{}};
  Injector inj;
  bind_cluster(inj, cluster);
  ASSERT_EQ(inj.surfaces(), 2u);
  const auto& preempt = inj.surface(0);
  const auto& spike = inj.surface(1);

  preempt.begin(3, 1.0);
  EXPECT_TRUE(cluster.preempted(3));
  preempt.begin(3, 1.0);
  preempt.end(3, 1.0);
  EXPECT_TRUE(cluster.preempted(3));  // refcounted like every transient
  preempt.end(3, 1.0);
  EXPECT_FALSE(cluster.preempted(3));

  spike.begin(0, 4.0);  // capacity divided by the magnitude
  EXPECT_DOUBLE_EQ(cluster.capacity_factor(), 0.25);
  spike.begin(0, 2.0);  // milder overlapping spike must not relax the cut
  EXPECT_DOUBLE_EQ(cluster.capacity_factor(), 0.25);
  spike.end(0, 4.0);  // strongest ends first: relax to the remaining spike
  EXPECT_DOUBLE_EQ(cluster.capacity_factor(), 0.5);
  spike.end(0, 2.0);
  EXPECT_DOUBLE_EQ(cluster.capacity_factor(), 1.0);

  spike.begin(0, 0.5);  // magnitude <= 1 is held but cannot boost capacity
  EXPECT_DOUBLE_EQ(cluster.capacity_factor(), 1.0);
  spike.end(0, 0.5);
  EXPECT_DOUBLE_EQ(cluster.capacity_factor(), 1.0);
}

TEST(PacketNetworkAdapter, PartitionAndLinkLossShareRefCounts) {
  const auto topo = cpn::Topology::grid(3, 3, 0, 7);
  cpn::PacketNetwork net(topo, cpn::PacketNetwork::Params{});
  Injector inj;
  bind_packet_network(inj, net);
  ASSERT_EQ(inj.surfaces(), 3u);
  const auto& loss = inj.surface(0);
  const auto& partition = inj.surface(1);
  EXPECT_EQ(loss.kind, FaultKind::LinkLoss);
  EXPECT_EQ(partition.kind, FaultKind::Partition);

  // Find a link incident to node 0 to set up the overlap.
  std::size_t incident_link = topo.links().size();
  for (std::size_t l = 0; l < topo.links().size(); ++l) {
    if (topo.links()[l].a == 0 || topo.links()[l].b == 0) {
      incident_link = l;
      break;
    }
  }
  ASSERT_LT(incident_link, topo.links().size());

  loss.begin(incident_link, 1.0);
  EXPECT_TRUE(net.link_dead(incident_link));
  partition.begin(0, 1.0);  // node 0 isolated: all incident links down
  for (std::size_t l = 0; l < topo.links().size(); ++l) {
    if (topo.links()[l].a == 0 || topo.links()[l].b == 0) {
      EXPECT_TRUE(net.link_dead(l)) << "link " << l;
    }
  }
  // The partition ends, but the direct link-loss still holds its link.
  partition.end(0, 1.0);
  EXPECT_TRUE(net.link_dead(incident_link));
  loss.end(incident_link, 1.0);
  EXPECT_FALSE(net.link_dead(incident_link));
}

TEST(PacketNetworkAdapter, ReorderScalesLatencyAndRestores) {
  const auto topo = cpn::Topology::grid(3, 3, 0, 7);
  cpn::PacketNetwork net(topo, cpn::PacketNetwork::Params{});
  Injector inj;
  bind_packet_network(inj, net);
  const auto& reorder = inj.surface(2);
  EXPECT_EQ(reorder.kind, FaultKind::LinkReorder);

  reorder.begin(2, 5.0);
  EXPECT_DOUBLE_EQ(net.link_slowdown(2), 5.0);
  reorder.begin(2, 3.0);
  reorder.end(2, 5.0);
  EXPECT_DOUBLE_EQ(net.link_slowdown(2), 3.0);  // latest factor, still held
  reorder.end(2, 3.0);
  EXPECT_DOUBLE_EQ(net.link_slowdown(2), 1.0);
}

TEST(ExchangeAdapter, GatesTheRuntime) {
  sim::Engine engine;
  core::AgentRuntime rt(engine);
  Injector inj;
  bind_exchange(inj, rt);
  ASSERT_EQ(inj.surfaces(), 1u);
  const auto& gate = inj.surface(0);
  EXPECT_EQ(gate.kind, FaultKind::ExchangeDrop);

  EXPECT_FALSE(rt.exchange_blocked());
  gate.begin(0, 1.0);
  EXPECT_TRUE(rt.exchange_blocked());
  gate.begin(0, 1.0);
  gate.end(0, 1.0);
  EXPECT_TRUE(rt.exchange_blocked());  // second drop still in force
  gate.end(0, 1.0);
  EXPECT_FALSE(rt.exchange_blocked());
}

TEST(FeedAgent, MirrorsInjectorStateIntoTheKnowledgeBase) {
  sim::Engine engine;
  Injector inj;
  // A one-unit surface with no substrate behind it: feed_agent only needs
  // the injector's events.
  inj.add_surface({FaultKind::LinkLoss, "test.link", 1,
                   [](std::size_t, double) {}, [](std::size_t, double) {}});
  core::SelfAwareAgent agent("watcher");
  feed_agent(inj, agent);
  inj.bind(engine, FaultPlan::parse("link-loss:rate=0.2,dur=5,end=50;seed=1"));
  engine.run_until(200.0);

  ASSERT_GT(inj.injected(), 0u);
  const auto& kb = agent.knowledge();
  EXPECT_DOUBLE_EQ(kb.number(kb.find("fault.count")),
                   static_cast<double>(inj.injected()));
  // Long after the window every transient expired: active mirrors zero.
  EXPECT_DOUBLE_EQ(kb.number(kb.find("fault.active")), 0.0);
  const auto item = kb.latest(kb.find("fault.active"));
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->source, "fault");
}

}  // namespace
}  // namespace sa::fault

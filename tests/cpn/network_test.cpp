#include "cpn/network.hpp"

#include <gtest/gtest.h>

#include "sim/telemetry.hpp"

namespace sa::cpn {
namespace {

PacketNetwork::Params params_for(PacketNetwork::Router r,
                                 std::uint64_t seed = 3) {
  PacketNetwork::Params p;
  p.router = r;
  p.seed = seed;
  return p;
}

TEST(Topology, GridHasExpectedStructure) {
  const auto t = Topology::grid(3, 4, 0, 1);
  EXPECT_EQ(t.nodes(), 12u);
  // 3*3 horizontal + 2*4 vertical edges.
  EXPECT_EQ(t.links().size(), 17u);
  // Corner has 2 neighbours, interior has 4.
  EXPECT_EQ(t.neighbours(0).size(), 2u);
  EXPECT_EQ(t.neighbours(5).size(), 4u);
}

TEST(Topology, ShortcutsAddChords) {
  const auto plain = Topology::grid(3, 4, 0, 1);
  const auto chorded = Topology::grid(3, 4, 3, 1);
  EXPECT_EQ(chorded.links().size(), plain.links().size() + 3);
}

TEST(Topology, DistancesAreManhattanOnPlainGrid) {
  const auto t = Topology::grid(3, 4, 0, 1);
  EXPECT_DOUBLE_EQ(t.distance(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.distance(0, 3), 3.0);   // along the top row
  EXPECT_DOUBLE_EQ(t.distance(0, 11), 5.0);  // corner to corner
}

TEST(Topology, NextHopWalksShortestPath) {
  const auto t = Topology::grid(3, 4, 0, 1);
  std::size_t at = 0;
  const std::size_t dst = 11;
  double hops = 0.0;
  while (at != dst) {
    at = t.next_hop(at, dst);
    hops += 1.0;
    ASSERT_LE(hops, 12.0) << "next_hop is cycling";
  }
  EXPECT_DOUBLE_EQ(hops, t.distance(0, dst));
}

TEST(Topology, LinkBetweenFindsBothDirections) {
  const auto t = Topology::grid(2, 2, 0, 1);
  const auto l1 = t.link_between(0, 1);
  const auto l2 = t.link_between(1, 0);
  EXPECT_EQ(l1, l2);
  EXPECT_NE(l1, static_cast<std::size_t>(-1));
  EXPECT_EQ(t.link_between(0, 3), static_cast<std::size_t>(-1));
}

class RouterTest : public ::testing::TestWithParam<PacketNetwork::Router> {};

TEST_P(RouterTest, DeliversPacketsOnQuietNetwork) {
  PacketNetwork net(Topology::grid(4, 6, 2, 7), params_for(GetParam()));
  sim::Rng rng(1);
  for (int t = 0; t < 2000; ++t) {
    if (t % 4 == 0) net.inject(0, 23, true);
    net.step();
  }
  const auto s = net.harvest();
  EXPECT_GT(s.delivered, 400u);
  EXPECT_GT(s.delivery_rate(), 0.95);
}

TEST_P(RouterTest, LatencyAtLeastShortestPath) {
  const auto topo = Topology::grid(4, 6, 0, 7);
  const double sp = topo.distance(0, 23);
  PacketNetwork net(topo, params_for(GetParam()));
  for (int t = 0; t < 1500; ++t) {
    if (t % 10 == 0) net.inject(0, 23, true);
    net.step();
  }
  const auto s = net.harvest();
  ASSERT_GT(s.delivered, 0u);
  EXPECT_GE(s.mean_latency, sp);
}

INSTANTIATE_TEST_SUITE_P(BothRouters, RouterTest,
                         ::testing::Values(PacketNetwork::Router::Static,
                                           PacketNetwork::Router::QRouting),
                         [](const auto& info) {
                           return info.param ==
                                          PacketNetwork::Router::Static
                                      ? "static"
                                      : "qrouting";
                         });

TEST(PacketNetwork, StaticFollowsShortestPathExactly) {
  const auto topo = Topology::grid(4, 6, 0, 7);
  PacketNetwork net(topo, params_for(PacketNetwork::Router::Static));
  for (int t = 0; t < 600; ++t) {
    if (t % 20 == 0) net.inject(2, 21, true);
    net.step();
  }
  const auto s = net.harvest();
  ASSERT_GT(s.delivered, 0u);
  EXPECT_NEAR(s.mean_hops, topo.distance(2, 21), 1e-9);
}

TEST(PacketNetwork, SelfInjectionIsIgnored) {
  PacketNetwork net(Topology::grid(2, 2, 0, 1),
                    params_for(PacketNetwork::Router::Static));
  net.inject(1, 1, true);
  for (int i = 0; i < 10; ++i) net.step();
  const auto s = net.harvest();
  EXPECT_EQ(s.injected, 0u);
  EXPECT_EQ(s.delivered, 0u);
}

TEST(PacketNetwork, CongestionInflatesLatency) {
  auto quiet = PacketNetwork(Topology::grid(4, 6, 0, 7),
                             params_for(PacketNetwork::Router::Static));
  auto busy = PacketNetwork(Topology::grid(4, 6, 0, 7),
                            params_for(PacketNetwork::Router::Static));
  for (int t = 0; t < 1500; ++t) {
    if (t % 10 == 0) quiet.inject(0, 23, true);
    if (t % 10 == 0) busy.inject(0, 23, true);
    // Flood traffic sharing the same shortest-path corridor.
    for (int i = 0; i < 4; ++i) busy.inject(0, 23, false);
    quiet.step();
    busy.step();
  }
  EXPECT_GT(busy.harvest().mean_latency, quiet.harvest().mean_latency);
}

TEST(PacketNetwork, TtlDropsLoopingPackets) {
  PacketNetwork::Params p = params_for(PacketNetwork::Router::QRouting);
  p.ttl_hops = 4;
  p.epsilon = 1.0;  // pure random walk: guaranteed to wander past TTL
  PacketNetwork net(Topology::grid(4, 6, 0, 7), p);
  for (int t = 0; t < 1000; ++t) {
    if (t % 5 == 0) net.inject(0, 23, true);  // 10+ hops away
    net.step();
  }
  const auto s = net.harvest();
  EXPECT_GT(s.dropped, 0u);
}

TEST(PacketNetwork, HarvestResetsCounters) {
  PacketNetwork net(Topology::grid(2, 3, 0, 1),
                    params_for(PacketNetwork::Router::Static));
  for (int t = 0; t < 100; ++t) {
    net.inject(0, 5, true);
    net.step();
  }
  net.harvest();
  const auto s = net.harvest();
  EXPECT_EQ(s.injected, 0u);
  EXPECT_EQ(s.delivered, 0u);
}

TEST(PacketNetwork, TelemetryRecordsDeliveriesAndDrops) {
  sim::TelemetryBus bus;
  PacketNetwork net(Topology::grid(2, 3, 0, 1),
                    params_for(PacketNetwork::Router::Static));
  net.set_telemetry(&bus);
  for (int t = 0; t < 200; ++t) {
    net.inject(0, 5, true);
    net.step();
  }
  const auto s = net.harvest();
  // Every legit delivery shows up as an observation; TTL/buffer losses as
  // failures — together they account for all terminated packets.
  EXPECT_EQ(bus.count(sim::TelemetryBus::kObservation),
            static_cast<std::size_t>(s.delivered));
  EXPECT_GT(bus.count(sim::TelemetryBus::kObservation), 0u);
}

TEST(PacketNetwork, QRoutingRoutesAroundCongestion) {
  // 2-row grid: two disjoint-ish corridors between the far corners. Flood
  // the top row; the learner should shift legit traffic and beat Static.
  const auto topo = Topology::grid(2, 8, 0, 9);
  auto run = [&](PacketNetwork::Router r) {
    PacketNetwork net(topo, params_for(r, 9));
    for (int t = 0; t < 6000; ++t) {
      if (t % 8 == 0) net.inject(0, 7, true);  // along the top row
      // Persistent flood on the same corridor.
      net.inject(1, 6, false);
      net.step();
    }
    return net.harvest();
  };
  const auto s_static = run(PacketNetwork::Router::Static);
  const auto s_q = run(PacketNetwork::Router::QRouting);
  ASSERT_GT(s_q.delivered, 100u);
  EXPECT_LT(s_q.mean_latency, s_static.mean_latency);
}

}  // namespace
}  // namespace sa::cpn

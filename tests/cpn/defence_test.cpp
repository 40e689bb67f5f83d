// Tests for the self-aware DoS defence (per-node per-destination rate
// shedding) and the finite link buffers added with it.
#include <gtest/gtest.h>

#include "cpn/network.hpp"
#include "cpn/traffic.hpp"
#include "support/fingerprint.hpp"

namespace sa::cpn {
namespace {

PacketNetwork::Params base_params(bool defence) {
  PacketNetwork::Params p;
  p.router = PacketNetwork::Router::Static;
  p.dos_defence = defence;
  p.seed = 7;
  return p;
}

TEST(DosDefence, ShedsNothingAtNormalRates) {
  const auto topo = Topology::grid(3, 4, 0, 1);
  PacketNetwork net(topo, base_params(true));
  for (int t = 0; t < 500; ++t) {
    if (t % 3 == 0) net.inject(0, 11, true);
    net.step();
  }
  EXPECT_EQ(net.defence_drops(), 0u);
  EXPECT_GT(net.harvest().delivery_rate(), 0.99);
}

TEST(DosDefence, ShedsFloodTraffic) {
  const auto topo = Topology::grid(3, 4, 0, 1);
  PacketNetwork net(topo, base_params(true));
  for (int t = 0; t < 500; ++t) {
    for (int i = 0; i < 10; ++i) net.inject(0, 11, false);  // flood
    net.step();
  }
  EXPECT_GT(net.defence_drops(), 1000u);
}

TEST(DosDefence, DisabledDefenceNeverSheds) {
  const auto topo = Topology::grid(3, 4, 0, 1);
  PacketNetwork net(topo, base_params(false));
  for (int t = 0; t < 200; ++t) {
    for (int i = 0; i < 10; ++i) net.inject(0, 11, false);
    net.step();
  }
  EXPECT_EQ(net.defence_drops(), 0u);
}

TEST(DosDefence, ProtectsOtherFlowsDuringFlood) {
  const auto topo = Topology::grid(4, 6, 0, 2);
  auto run = [&](bool defence) {
    PacketNetwork net(topo, base_params(defence));
    for (int t = 0; t < 2000; ++t) {
      // Protected flow and flood enter at the same node and compete for
      // link 2-3; distinct destinations, so the defence can tell them
      // apart where raw buffers cannot.
      for (int i = 0; i < 6; ++i) net.inject(2, 5, false);  // flood
      if (t % 5 == 0) net.inject(2, 4, true);
      net.step();
    }
    return net.harvest();
  };
  const auto without = run(false);
  const auto with = run(true);
  EXPECT_GT(with.delivery_rate(), without.delivery_rate());
}

TEST(FiniteBuffers, FullLinkDropsInsteadOfQueueingForever) {
  // One path network: 2 nodes, 1 link of capacity 8 -> buffer 32.
  Topology topo(2, {{0, 1, 1.0, 8.0}});
  PacketNetwork::Params p;
  p.router = PacketNetwork::Router::Static;
  p.seed = 3;
  PacketNetwork net(topo, p);
  for (int i = 0; i < 100; ++i) net.inject(0, 1, true);
  for (int i = 0; i < 2000; ++i) net.step();
  const auto s = net.harvest();
  EXPECT_EQ(s.delivered + s.dropped, 100u);
  EXPECT_GT(s.dropped, 0u);
  EXPECT_LE(s.delivered, 32u);  // one burst: at most the buffer gets through
}

TEST(FiniteBuffers, QRouterLearnsFromDrops) {
  // Two parallel 2-hop routes 0->1->3 and 0->2->3; saturate link 0-1 with
  // cross traffic so drops teach the router to prefer 0-2.
  Topology topo(4, {{0, 1, 1.0, 2.0},
                    {0, 2, 2.0, 8.0},
                    {1, 3, 1.0, 8.0},
                    {2, 3, 2.0, 8.0}});
  PacketNetwork::Params p;
  p.router = PacketNetwork::Router::QRouting;
  p.epsilon = 0.02;
  p.seed = 4;
  PacketNetwork net(topo, p);
  for (int t = 0; t < 3000; ++t) {
    net.inject(0, 3, true);
    net.inject(0, 1, false);  // keeps the cheap link full
    net.step();
  }
  const auto s = net.harvest();
  // With drop-penalty learning the delivery rate stays high despite the
  // preferred (shorter) route being saturated.
  EXPECT_GT(s.delivery_rate(), 0.8);
}

TEST(DosDefence, E4AttackRunIsPinned) {
  // E4's world (seed 41) with its flood in the middle of three 800-tick
  // windows, Q-routing with and without the defence: the digest covers the
  // Q-routing rate, the link buffers and their drop penalty, and the
  // defence's per-destination rate cap.
  test::support::Fingerprint fp;
  std::size_t shed = 0;
  for (const bool defence : {false, true}) {
    const auto topo = Topology::grid(4, 6, 4, 41);
    PacketNetwork::Params np;
    np.router = PacketNetwork::Router::QRouting;
    np.dos_defence = defence;
    np.seed = 41;
    PacketNetwork net(topo, np);
    TrafficParams tp;
    tp.flows = 8;
    tp.legit_rate = 2.0;
    tp.attack_start = 800.0;
    tp.attack_end = 1600.0;
    tp.attack_rate = 25.0;
    tp.attackers = 3;
    tp.seed = 41;
    TrafficGenerator gen(topo, tp);
    for (int w = 0; w < 3; ++w) {
      for (int t = 0; t < 800; ++t) {
        gen.tick(net);
        net.step();
      }
      const CpnStats s = net.harvest();
      fp.add(s.injected);
      fp.add(s.delivered);
      fp.add(s.dropped);
      fp.add(s.mean_latency);
      fp.add(s.p95_latency);
      fp.add(s.mean_hops);
    }
    fp.add(net.defence_drops());
    shed += net.defence_drops();
  }
  EXPECT_GT(shed, 0u) << "the defence shed nothing";
  EXPECT_EQ(fp.value(), 0x76bdac65d95c3bf6ull)
      << std::hex << "digest 0x" << fp.value();
}

}  // namespace
}  // namespace sa::cpn

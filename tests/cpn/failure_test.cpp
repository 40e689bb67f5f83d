// Tests for link failures: the self-aware router reroutes, static does not.
#include <gtest/gtest.h>

#include "cpn/network.hpp"

namespace sa::cpn {
namespace {

PacketNetwork::Params params_for(PacketNetwork::Router r) {
  PacketNetwork::Params p;
  p.router = r;
  p.seed = 9;
  return p;
}

TEST(LinkFailure, DeadLinkDropsEverythingSentOntoIt) {
  Topology topo(2, {{0, 1, 1.0, 8.0}});
  PacketNetwork net(topo, params_for(PacketNetwork::Router::Static));
  net.fail_link(0);
  EXPECT_TRUE(net.link_dead(0));
  for (int i = 0; i < 50; ++i) {
    net.inject(0, 1, true);
    net.step();
  }
  const auto s = net.harvest();
  EXPECT_EQ(s.delivered, 0u);
  EXPECT_EQ(s.dropped, 50u);
}

TEST(LinkFailure, RestoreBringsTheLinkBack) {
  Topology topo(2, {{0, 1, 1.0, 8.0}});
  PacketNetwork net(topo, params_for(PacketNetwork::Router::Static));
  net.fail_link(0);
  net.inject(0, 1, true);
  net.restore_link(0);
  for (int i = 0; i < 20; ++i) {
    net.inject(0, 1, true);
    net.step();
  }
  for (int i = 0; i < 20; ++i) net.step();
  EXPECT_GT(net.harvest().delivered, 15u);
}

TEST(LinkFailure, StaticRoutingCannotRouteAround) {
  // Grid with the shortest path 0->1->2 broken at 1-2: static keeps using
  // the precomputed next hops and loses the flow.
  const auto topo = Topology::grid(2, 3, 0, 1);  // nodes 0..5
  PacketNetwork net(topo, params_for(PacketNetwork::Router::Static));
  net.fail_link(topo.link_between(1, 2));
  for (int t = 0; t < 600; ++t) {
    if (t % 3 == 0) net.inject(0, 2, true);
    net.step();
  }
  const auto s = net.harvest();
  EXPECT_LT(s.delivery_rate(), 0.5);
}

TEST(LinkFailure, QRoutingLearnsTheDetour) {
  const auto topo = Topology::grid(2, 3, 0, 1);
  PacketNetwork::Params p = params_for(PacketNetwork::Router::QRouting);
  p.epsilon = 0.05;
  PacketNetwork net(topo, p);
  net.fail_link(topo.link_between(1, 2));
  for (int t = 0; t < 2000; ++t) {
    if (t % 3 == 0) net.inject(0, 2, true);
    net.step();
  }
  net.harvest();  // discard the learning period
  for (int t = 0; t < 600; ++t) {
    if (t % 3 == 0) net.inject(0, 2, true);
    net.step();
  }
  for (int i = 0; i < 100; ++i) net.step();
  const auto s = net.harvest();
  EXPECT_GT(s.delivery_rate(), 0.9);  // found 0->3->4->5->2 (or similar)
}

TEST(LinkFailure, QRoutingSurvivesFailureMidRun) {
  const auto topo = Topology::grid(3, 4, 2, 3);
  PacketNetwork::Params p = params_for(PacketNetwork::Router::QRouting);
  PacketNetwork net(topo, p);
  auto drive = [&](int ticks) {
    for (int t = 0; t < ticks; ++t) {
      if (t % 4 == 0) net.inject(0, 11, true);
      net.step();
    }
    return net.harvest();
  };
  drive(1500);  // converge on the healthy network
  net.fail_link(topo.link_between(0, 1));
  drive(1500);  // adapt
  const auto after = drive(800);
  EXPECT_GT(after.delivery_rate(), 0.85);
}

}  // namespace
}  // namespace sa::cpn

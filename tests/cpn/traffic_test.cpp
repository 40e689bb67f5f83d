#include "cpn/traffic.hpp"

#include <gtest/gtest.h>

namespace sa::cpn {
namespace {

TEST(TrafficGenerator, FlowsAreValidAndSeparated) {
  const auto topo = Topology::grid(4, 6, 0, 1);
  TrafficParams p;
  p.flows = 6;
  TrafficGenerator gen(topo, p);
  ASSERT_EQ(gen.flows().size(), 6u);
  for (const auto& [s, d] : gen.flows()) {
    EXPECT_LT(s, topo.nodes());
    EXPECT_LT(d, topo.nodes());
    EXPECT_NE(s, d);
    EXPECT_GE(topo.distance(s, d), 3.0);
  }
}

TEST(TrafficGenerator, VictimIsCentral) {
  const auto topo = Topology::grid(3, 3, 0, 1);
  TrafficGenerator gen(topo, {});
  EXPECT_EQ(gen.victim(), 4u);  // centre of a 3x3 grid
}

TEST(TrafficGenerator, AttackWindowRespected) {
  TrafficParams p;
  p.attack_start = 100.0;
  p.attack_end = 200.0;
  TrafficGenerator gen(Topology::grid(3, 3, 0, 1), p);
  EXPECT_FALSE(gen.attacking(50.0));
  EXPECT_TRUE(gen.attacking(100.0));
  EXPECT_TRUE(gen.attacking(199.9));
  EXPECT_FALSE(gen.attacking(200.0));
}

TEST(TrafficGenerator, NegativeStartDisablesAttack) {
  TrafficGenerator gen(Topology::grid(3, 3, 0, 1), {});
  EXPECT_FALSE(gen.attacking(0.0));
  EXPECT_FALSE(gen.attacking(1e9));
}

TEST(TrafficGenerator, InjectsLegitimateTraffic) {
  const auto topo = Topology::grid(4, 6, 0, 2);
  PacketNetwork::Params np;
  np.router = PacketNetwork::Router::Static;
  PacketNetwork net(topo, np);
  TrafficParams p;
  p.legit_rate = 3.0;
  TrafficGenerator gen(topo, p);
  for (int t = 0; t < 200; ++t) {
    gen.tick(net);
    net.step();
  }
  for (int i = 0; i < 500; ++i) net.step();  // drain
  const auto s = net.harvest();
  EXPECT_NEAR(static_cast<double>(s.injected), 600.0, 120.0);
  EXPECT_GT(s.delivered, 0u);
}

TEST(TrafficGenerator, AttackAddsLoadWithoutCountingAsLegit) {
  const auto topo = Topology::grid(4, 6, 0, 2);
  PacketNetwork::Params np;
  np.router = PacketNetwork::Router::Static;
  PacketNetwork quiet_net(topo, np), attacked_net(topo, np);

  TrafficParams base;
  base.legit_rate = 1.0;
  base.seed = 5;
  TrafficParams attack = base;
  attack.attack_start = 0.0;
  attack.attack_end = 1e9;
  attack.attack_rate = 20.0;

  TrafficGenerator quiet_gen(topo, base), attack_gen(topo, attack);
  for (int t = 0; t < 300; ++t) {
    quiet_gen.tick(quiet_net);
    attack_gen.tick(attacked_net);
    quiet_net.step();
    attacked_net.step();
  }
  // Attack packets congest the network but are not counted as injected.
  const auto sq = quiet_net.harvest();
  const auto sa_ = attacked_net.harvest();
  EXPECT_NEAR(static_cast<double>(sa_.injected),
              static_cast<double>(sq.injected), 80.0);
  EXPECT_GT(sa_.mean_latency, sq.mean_latency);
}

}  // namespace
}  // namespace sa::cpn

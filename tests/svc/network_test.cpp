#include "svc/network.hpp"

#include <gtest/gtest.h>

namespace sa::svc {
namespace {

NetworkParams quiet_params() {
  NetworkParams p;
  p.objects = 10;
  p.seed = 2;
  return p;
}

TEST(Vec2, DistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(distance({0.0, 0.0}, {3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1.0, 1.0}, {1.0, 1.0}), 0.0);
}

TEST(StrategyNames, Stable) {
  EXPECT_STREQ(strategy_name(Strategy::Broadcast), "broadcast");
  EXPECT_STREQ(strategy_name(Strategy::Smooth), "smooth");
  EXPECT_STREQ(strategy_name(Strategy::Passive), "passive");
}

TEST(Network, ClusteredLayoutHasDenseAndSparseRegions) {
  auto net = Network::clustered_layout(quiet_params());
  ASSERT_EQ(net.cameras(), 12u);
  // The four cluster cameras overlap heavily; the ring cameras are lonely.
  EXPECT_GE(net.neighbours(0).size(), 3u);
  std::size_t min_neighbours = 99;
  for (std::size_t c = 4; c < net.cameras(); ++c) {
    min_neighbours = std::min(min_neighbours, net.neighbours(c).size());
  }
  EXPECT_LE(min_neighbours, 1u);
}

TEST(Network, VisibilityPeaksAtCentreAndVanishesAtRim) {
  Network net({{{0.5, 0.5}, 0.2, 4}}, quiet_params());
  // Object positions are random; test the geometry helper directly by
  // finding an owned arrangement: use spec access + visibility of object 0
  // after forcing positions via steps is awkward, so check bounds instead.
  for (std::size_t o = 0; o < net.objects(); ++o) {
    const double v = net.visibility(0, o);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Network, StepKeepsOwnershipConsistent) {
  auto net = Network::clustered_layout(quiet_params());
  net.run(200);
  for (std::size_t o = 0; o < net.objects(); ++o) {
    const auto owner = net.owner(o);
    if (owner != static_cast<std::size_t>(-1)) {
      EXPECT_LT(owner, net.cameras());
    }
  }
}

TEST(Network, ObjectsGetClaimedOverTime) {
  auto net = Network::clustered_layout(quiet_params());
  net.run(100);
  std::size_t owned = 0;
  for (std::size_t o = 0; o < net.objects(); ++o) {
    owned += net.owner(o) != static_cast<std::size_t>(-1) ? 1 : 0;
  }
  EXPECT_GT(owned, 0u);
}

TEST(Network, CoverageAndMessagesAccumulate) {
  auto net = Network::clustered_layout(quiet_params());
  net.run(300);
  const auto e = net.harvest_network();
  EXPECT_DOUBLE_EQ(e.steps, 300.0);
  EXPECT_GT(e.coverage, 0.1);
  EXPECT_LE(e.coverage, 1.0);
  EXPECT_GE(e.messages, 0.0);
}

TEST(Network, HarvestNetworkResets) {
  auto net = Network::clustered_layout(quiet_params());
  net.run(50);
  net.harvest_network();
  const auto e = net.harvest_network();
  EXPECT_DOUBLE_EQ(e.steps, 0.0);
}

TEST(Network, BroadcastOutMessagesSmooth) {
  // Identical worlds; all-broadcast must send at least as many messages as
  // all-smooth (broadcast audience is a superset).
  auto a = Network::clustered_layout(quiet_params());
  auto b = Network::clustered_layout(quiet_params());
  for (std::size_t c = 0; c < a.cameras(); ++c) {
    a.set_strategy(c, Strategy::Broadcast);
    b.set_strategy(c, Strategy::Smooth);
  }
  a.run(400);
  b.run(400);
  EXPECT_GE(a.harvest_network().messages, b.harvest_network().messages);
}

TEST(Network, PassiveSendsNoMessages) {
  auto net = Network::clustered_layout(quiet_params());
  for (std::size_t c = 0; c < net.cameras(); ++c) {
    net.set_strategy(c, Strategy::Passive);
  }
  net.run(400);
  EXPECT_DOUBLE_EQ(net.harvest_network().messages, 0.0);
}

TEST(Network, BroadcastCoversBetterThanPassive) {
  auto a = Network::clustered_layout(quiet_params());
  auto b = Network::clustered_layout(quiet_params());
  for (std::size_t c = 0; c < a.cameras(); ++c) {
    a.set_strategy(c, Strategy::Broadcast);
    b.set_strategy(c, Strategy::Passive);
  }
  a.run(600);
  b.run(600);
  EXPECT_GT(a.harvest_network().coverage, b.harvest_network().coverage);
}

TEST(Network, CameraEpochUtilityBlendsComponents) {
  CameraEpoch e;
  e.tracking = 10.0;
  e.messages = 20.0;
  e.handovers = 2.0;
  EXPECT_DOUBLE_EQ(e.utility(), 10.0 + 0.3 * 2.0 - 0.05 * 20.0);
}

TEST(Network, HarvestCameraResetsCounters) {
  auto net = Network::clustered_layout(quiet_params());
  net.run(100);
  net.harvest_camera(0);
  const auto e = net.harvest_camera(0);
  EXPECT_DOUBLE_EQ(e.tracking, 0.0);
  EXPECT_DOUBLE_EQ(e.messages, 0.0);
}

TEST(Network, StrategiesPersistAcrossSteps) {
  auto net = Network::clustered_layout(quiet_params());
  net.set_strategy(3, Strategy::Smooth);
  net.run(10);
  EXPECT_EQ(net.strategy(3), Strategy::Smooth);
}

TEST(Network, DeterministicGivenSeed) {
  auto a = Network::clustered_layout(quiet_params());
  auto b = Network::clustered_layout(quiet_params());
  a.run(200);
  b.run(200);
  EXPECT_DOUBLE_EQ(a.harvest_network().coverage,
                   b.harvest_network().coverage);
}

}  // namespace
}  // namespace sa::svc

#include "svc/fleet.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"

namespace sa::svc {
namespace {

NetworkParams world_params(std::uint64_t seed = 4) {
  NetworkParams p;
  p.objects = 16;
  p.seed = seed;
  return p;
}

TEST(CameraFleet, HomogeneousAppliesFixedStrategyEverywhere) {
  auto net = Network::clustered_layout(world_params());
  CameraFleet::Params p;
  p.mode = CameraFleet::Mode::Homogeneous;
  p.fixed = Strategy::Smooth;
  CameraFleet fleet(net, p);
  for (std::size_t c = 0; c < net.cameras(); ++c) {
    EXPECT_EQ(net.strategy(c), Strategy::Smooth);
  }
  EXPECT_DOUBLE_EQ(fleet.diversity(), 0.0);
}

TEST(CameraFleet, HistogramSumsToCameraCount) {
  auto net = Network::clustered_layout(world_params());
  CameraFleet fleet(net, {});
  for (int i = 0; i < 5; ++i) fleet.run_epoch();
  const auto hist = fleet.strategy_histogram();
  std::size_t total = 0;
  for (auto c : hist) total += c;
  EXPECT_EQ(total, net.cameras());
}

TEST(CameraFleet, DiversityIsZeroWhenUniform) {
  auto net = Network::clustered_layout(world_params());
  CameraFleet::Params p;
  p.mode = CameraFleet::Mode::Homogeneous;
  p.fixed = Strategy::Broadcast;
  CameraFleet fleet(net, p);
  fleet.run_epoch();
  EXPECT_DOUBLE_EQ(fleet.diversity(), 0.0);
}

TEST(CameraFleet, DiversityIsOneWhenBalanced) {
  auto net = Network::clustered_layout(world_params());
  CameraFleet::Params p;
  p.mode = CameraFleet::Mode::Homogeneous;
  CameraFleet fleet(net, p);
  // Hand-assign a perfectly balanced strategy split (12 cameras / 3).
  for (std::size_t c = 0; c < net.cameras(); ++c) {
    net.set_strategy(c, static_cast<Strategy>(c % kStrategies));
  }
  EXPECT_NEAR(fleet.diversity(), 1.0, 1e-9);
}

TEST(CameraFleet, LearningRunsAndAccumulates) {
  auto net = Network::clustered_layout(world_params());
  CameraFleet::Params p;
  p.epoch_steps = 20;
  CameraFleet fleet(net, p);
  for (int i = 0; i < 10; ++i) {
    const auto e = fleet.run_epoch();
    EXPECT_GE(e.coverage, 0.0);
    EXPECT_LE(e.coverage, 1.0);
  }
  EXPECT_EQ(fleet.coverage().count(), 10u);
}

TEST(CameraFleet, LearningAgentsExist) {
  auto net = Network::clustered_layout(world_params());
  CameraFleet fleet(net, {});
  fleet.run_epoch();
  EXPECT_EQ(fleet.cameras(), net.cameras());
  EXPECT_EQ(fleet.agent(0).id(), "cam0");
  EXPECT_GT(fleet.agent(0).steps(), 0u);
}

TEST(CameraFleet, LearningDevelopsNonTrivialAssignment) {
  // After enough epochs the learners should have committed to concrete
  // strategies (not stuck at construction defaults with no exploration).
  auto net = Network::clustered_layout(world_params(9));
  CameraFleet::Params p;
  p.epoch_steps = 20;
  p.seed = 9;
  CameraFleet fleet(net, p);
  for (int i = 0; i < 60; ++i) fleet.run_epoch();
  const auto hist = fleet.strategy_histogram();
  // Exploration guarantees every strategy was tried; final histogram must
  // be a valid partition.
  std::size_t total = 0;
  for (auto c : hist) total += c;
  EXPECT_EQ(total, net.cameras());
}

TEST(CameraFleet, BindReproducesRunEpochLoop) {
  // The engine-driven fleet (every step an event, epoch work piggybacked on
  // the epoch_steps-th step) must match the synchronous run_epoch() loop.
  CameraFleet::Params p;
  p.epoch_steps = 10;
  p.seed = 6;

  auto legacy_net = Network::clustered_layout(world_params(6));
  CameraFleet legacy(legacy_net, p);
  sim::RunningStats legacy_u;
  for (int i = 0; i < 8; ++i) legacy_u.add(legacy.run_epoch().global_utility);

  auto bound_net = Network::clustered_layout(world_params(6));
  CameraFleet bound(bound_net, p);
  sim::Engine engine;
  sim::RunningStats bound_u;
  bound.bind(engine, 1.0, [&](const NetworkEpoch& e) {
    bound_u.add(e.global_utility);
  });
  engine.run_until(8.0 * 10.0);

  ASSERT_EQ(bound_u.count(), 8u);
  EXPECT_DOUBLE_EQ(bound_u.mean(), legacy_u.mean());
  EXPECT_DOUBLE_EQ(bound.coverage().mean(), legacy.coverage().mean());
}

TEST(CameraFleet, TelemetryFlowsFromNetworkAndAgents) {
  sim::TelemetryBus bus;
  auto net = Network::clustered_layout(world_params());
  CameraFleet::Params p;
  p.telemetry = &bus;
  CameraFleet fleet(net, p);
  for (int i = 0; i < 5; ++i) fleet.run_epoch();
  // Agents emit observation/decision; the auction layer emits handover
  // observations under the shared "svc.network" subject.
  EXPECT_GT(bus.count(sim::TelemetryBus::kObservation), 0u);
  EXPECT_GT(bus.count(sim::TelemetryBus::kDecision), 0u);
  EXPECT_EQ(bus.subject_name(bus.intern_subject("svc.network")),
            "svc.network");
}

TEST(CameraFleet, AgentsReceiveGoalUtility) {
  auto net = Network::clustered_layout(world_params());
  CameraFleet fleet(net, {});
  for (int i = 0; i < 3; ++i) fleet.run_epoch();
  EXPECT_TRUE(fleet.agent(0).knowledge().contains("goal.utility"));
}

}  // namespace
}  // namespace sa::svc

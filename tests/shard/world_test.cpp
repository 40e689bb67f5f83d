// ShardedWorld contract tests (sa::shard): typed validation errors,
// byte-identical trajectories at every shard count, the one-shard world
// as the plain Scenario run with every seam, degenerate shapes (empty
// shards, cloud-only worlds), resumable runs, and the worker-side build
// and teardown lifecycle (a throwing build, a world never run, a world
// destroyed mid-horizon).
#include "shard/world.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/scenario.hpp"
#include "gen/spec.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"
#include "support/metamorphic.hpp"

namespace {

using namespace sa;
namespace support = test::support;

const char* const kTownSpec =
    "world:horizon=80;multicore:nodes=1;"
    "cameras:count=6,objects=8,clusters=1;"
    "cloud:nodes=8;cpn:rows=3,cols=3,shortcuts=2;faults";

const char* const kReplicatedSpec =
    "world:horizon=80;multicore:nodes=3;"
    "cameras:count=5,objects=6,clusters=1,districts=3;"
    "cloud:nodes=8;cpn:rows=3,cols=3,shortcuts=2,flows=4,grids=3;faults";

const char* const kShortStepSpec =
    "world:horizon=40,step=1;cloud:nodes=8,epoch=1;"
    "cpn:rows=3,cols=3,shortcuts=2";

const char* const kLongMulticoreEpochSpec =
    "world:horizon=40;multicore:nodes=2,epoch=20;cloud:nodes=8,epoch=10";

shard::ShardedWorld::Options opts_for(std::size_t shards) {
  return {.shards = shards};
}

/// Every observability seam a world takes, attached to one bus.
struct Seams {
  sim::TelemetryBus bus;
  sim::RingBufferSink sink{1u << 16};
  sim::Tracer tracer{bus};
  sim::MetricsRegistry metrics;

  Seams() { bus.add_sink(&sink); }
  gen::Scenario::Options options() {
    return {.telemetry = &bus, .tracer = &tracer, .metrics = &metrics};
  }
};

TEST(ShardedWorldValidate, RejectsZeroShards) {
  EXPECT_THROW(shard::ShardedWorld::validate(
                   gen::ScenarioSpec::parse(kTownSpec), opts_for(0)),
               shard::ShardError);
}

TEST(ShardedWorldValidate, RejectsCouplingWindowNotLongerThanStep) {
  // cpn enabled + cloud enabled: the coupling window is the cloud epoch,
  // which must be strictly longer than the world step.
  const auto spec = gen::ScenarioSpec::parse(kShortStepSpec);
  EXPECT_THROW(shard::ShardedWorld::validate(spec, opts_for(2)),
               shard::ShardError);
  EXPECT_THROW(shard::ShardedWorld(spec, 1, opts_for(2)), shard::ShardError);
}

TEST(ShardedWorldValidate, RejectsMulticoreEpochLongerThanCloudEpoch) {
  const auto spec = gen::ScenarioSpec::parse(kLongMulticoreEpochSpec);
  EXPECT_THROW(shard::ShardedWorld::validate(spec, opts_for(2)),
               shard::ShardError);
}

TEST(ShardedWorldValidate, AcceptsAnySpecAtOneShard) {
  // Both dominance checks guard a coordinator/shard split; one shard has
  // none, so it runs every spec a bare Scenario runs.
  for (const char* text : {kShortStepSpec, kLongMulticoreEpochSpec}) {
    const auto spec = gen::ScenarioSpec::parse(text);
    EXPECT_NO_THROW(shard::ShardedWorld::validate(spec, opts_for(1))) << text;
    EXPECT_TRUE(support::shard_count_invariant(text, 9, {1})) << text;
  }
}

TEST(ShardedWorldValidate, AcceptsTheTownAndTheCity) {
  EXPECT_NO_THROW(shard::ShardedWorld::validate(
      gen::ScenarioSpec::parse(kTownSpec), opts_for(8)));
  EXPECT_NO_THROW(shard::ShardedWorld::validate(
      gen::ScenarioSpec::parse(gen::ScenarioSpec::city_spec()), opts_for(8)));
}

TEST(ShardedWorld, TownIsByteIdenticalAtEveryShardCount) {
  EXPECT_TRUE(support::shard_count_invariant(kTownSpec, 41, {1, 2, 4, 8}));
}

TEST(ShardedWorld, ReplicatedDistrictsAndGridsAreByteIdentical) {
  EXPECT_TRUE(
      support::shard_count_invariant(kReplicatedSpec, 42, {1, 2, 4, 8}));
}

TEST(ShardedWorld, BaselineVariantIsByteIdenticalToo) {
  EXPECT_TRUE(support::shard_count_invariant(kReplicatedSpec, 43, {2, 4}, {},
                                             /*self_aware=*/false));
}

TEST(ShardedWorld, CloudOnlyWorldAllShardsIdle) {
  // No units at all: every shard idles at every barrier; the trajectory is
  // exactly the coordinator's.
  EXPECT_TRUE(support::shard_count_invariant("world:horizon=60;cloud:nodes=8",
                                             44, {1, 4}));
}

TEST(ShardedWorld, MoreShardsThanUnits) {
  // 3 units on 8 shards: five shards stay empty, result unchanged.
  EXPECT_TRUE(support::shard_count_invariant(
      "world:horizon=60;multicore:nodes=3", 45, {8}));
}

TEST(ShardedWorld, OneShardIsTheScenarioRun) {
  const auto spec = gen::ScenarioSpec::parse(kTownSpec);

  Seams ref_seams;
  gen::Scenario ref(spec, 48, ref_seams.options());
  ref.run();

  Seams seams;
  shard::ShardedWorld world(spec, 48,
                            {.shards = 1, .scenario = seams.options()});
  world.run();

  EXPECT_EQ(world.shards(), 1u);
  EXPECT_EQ(world.shard_events(),
            std::vector<std::uint64_t>{world.world().engine().executed()});
  EXPECT_EQ(world.lag_seconds(), 0.0);
  EXPECT_TRUE(support::byte_identical(support::scenario_fingerprint(ref),
                                      support::scenario_fingerprint(
                                          world.world()),
                                      "Scenario vs one-shard summaries"));

  // The bus saw the same events, in the same order.
  ASSERT_GT(ref_seams.bus.total(), 0u);
  EXPECT_EQ(seams.bus.total(), ref_seams.bus.total());
  ASSERT_EQ(seams.sink.seen(), ref_seams.sink.seen());
  ASSERT_EQ(seams.sink.size(), ref_seams.sink.size());
  for (std::size_t i = 0; i < ref_seams.sink.size(); ++i) {
    const auto& want = ref_seams.sink.at(i);
    const auto& got = seams.sink.at(i);
    ASSERT_TRUE(got.t == want.t && got.category == want.category &&
                got.subject == want.subject && got.value == want.value &&
                got.detail == want.detail)
        << "telemetry event " << i << " differs";
  }

  // The tracer and the registry were wired exactly as on the Scenario.
  ASSERT_GT(ref_seams.tracer.spans(), 0u);
  EXPECT_EQ(seams.tracer.events().size(), ref_seams.tracer.events().size());
  EXPECT_EQ(seams.tracer.spans(), ref_seams.tracer.spans());
  EXPECT_EQ(seams.tracer.flows(), ref_seams.tracer.flows());
  ASSERT_GT(ref_seams.metrics.size(), 0u);
  ASSERT_EQ(seams.metrics.size(), ref_seams.metrics.size());
  for (sim::MetricsRegistry::MetricId m = 0; m < ref_seams.metrics.size();
       ++m) {
    EXPECT_EQ(seams.metrics.name(m), ref_seams.metrics.name(m));
    EXPECT_EQ(seams.metrics.value(m), ref_seams.metrics.value(m))
        << ref_seams.metrics.name(m);
  }
}

TEST(ShardedWorld, ShardEventsHasOneSlotPerShardPlusCoordinator) {
  const auto spec = gen::ScenarioSpec::parse(kTownSpec);
  shard::ShardedWorld world(spec, 7, opts_for(3));
  world.run();
  const auto events = world.shard_events();
  ASSERT_EQ(events.size(), 4u);  // 3 shards + coordinator
  std::uint64_t total = 0;
  for (const std::uint64_t e : events) total += e;
  EXPECT_GT(total, 0u);
  EXPECT_GT(events.back(), 0u);  // the coordinator always runs something
  EXPECT_GE(world.lag_seconds(), 0.0);
}

TEST(ShardedWorld, RunUntilIsResumable) {
  const auto spec = gen::ScenarioSpec::parse(kReplicatedSpec);

  shard::ShardedWorld whole(spec, 46, opts_for(4));
  whole.run();

  shard::ShardedWorld split(spec, 46, opts_for(4));
  split.run_until(37.0);
  split.run_until(spec.world.horizon);

  EXPECT_TRUE(support::byte_identical(
      support::scenario_fingerprint(whole.world()),
      support::scenario_fingerprint(split.world()),
      "one run vs split run_until"));
}

TEST(ShardedWorld, PartitionExposedAndSizedBySpec) {
  const auto spec = gen::ScenarioSpec::parse(kReplicatedSpec);
  shard::ShardedWorld world(spec, 47, opts_for(2));
  EXPECT_EQ(world.shards(), 2u);
  EXPECT_EQ(world.partition().district_shard.size(), 3u);
  EXPECT_EQ(world.partition().grid_shard.size(), 3u);
  EXPECT_EQ(world.partition().edge_shard.size(), 3u);
}

TEST(ShardedWorldLifecycle, ThrowingBuildStopsThePoolAndRethrows) {
  // No substrate section: the Scenario constructor throws after the pool
  // started. The pool must be joined and the error reach the caller, as
  // it does at one shard.
  const auto spec = gen::ScenarioSpec::parse("world:horizon=10");
  EXPECT_THROW(shard::ShardedWorld(spec, 1, opts_for(1)),
               std::invalid_argument);
  for (const std::size_t shards : {2u, 4u}) {
    EXPECT_THROW(shard::ShardedWorld(spec, 1, opts_for(shards)),
                 std::invalid_argument)
        << shards;
  }
}

TEST(ShardedWorldLifecycle, WorkerBuildErrorReachesTheCaller) {
  // A district whose camera count no vector can hold: its build throws
  // std::length_error on the worker that owns it. The exception crosses to
  // the caller after every worker finished, and the pool is joined.
  const auto spec = gen::ScenarioSpec::parse(
      "world:horizon=10;multicore:nodes=2;"
      "cameras:count=18446744073709551615,districts=2");
  for (const std::size_t shards : {1u, 2u, 4u}) {
    EXPECT_THROW(shard::ShardedWorld(spec, 1, opts_for(shards)),
                 std::length_error)
        << shards;
  }
}

TEST(ShardedWorldLifecycle, BuiltAndDestroyedWithoutRunning) {
  const auto spec = gen::ScenarioSpec::parse(kReplicatedSpec);
  for (const std::size_t shards : {2u, 4u}) {
    shard::ShardedWorld world(spec, 49, opts_for(shards));
    EXPECT_EQ(world.world().districts(), 3u) << shards;
    EXPECT_EQ(world.world().grids(), 3u) << shards;
    EXPECT_EQ(world.world().edge_nodes(), 3u) << shards;
    std::uint64_t events = 0;
    for (const std::uint64_t e : world.shard_events()) events += e;
    EXPECT_EQ(events, 0u) << shards;
  }
}

TEST(ShardedWorldLifecycle, LagIsZeroRightAfterConstruction) {
  // The build barrier is not a simulation barrier: it is not charged.
  const auto spec = gen::ScenarioSpec::parse(kReplicatedSpec);
  for (const std::size_t shards : {2u, 4u}) {
    shard::ShardedWorld world(spec, 50, opts_for(shards));
    EXPECT_EQ(world.lag_seconds(), 0.0) << shards;
  }
}

TEST(ShardedWorldLifecycle, DestroyedHalfwayThroughTheHorizon) {
  const auto spec = gen::ScenarioSpec::parse(kReplicatedSpec);
  gen::Scenario ref(spec, 51);
  ref.run_until(spec.world.horizon / 2);
  for (const std::size_t shards : {2u, 4u}) {
    shard::ShardedWorld world(spec, 51, opts_for(shards));
    world.run_until(spec.world.horizon / 2);
    EXPECT_GT(world.lag_seconds(), 0.0) << shards;
    EXPECT_TRUE(support::byte_identical(
        support::scenario_fingerprint(ref),
        support::scenario_fingerprint(world.world()),
        "Scenario vs sharded world at half the horizon"))
        << shards;
  }  // destroyed with events still pending on every engine
}

}  // namespace

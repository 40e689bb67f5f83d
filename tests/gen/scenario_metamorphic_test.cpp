// Metamorphic properties of generated scenarios (ctest -L gen).
//
// These tests never assert a "right" trajectory; they assert relations
// between runs of the same generated world:
//
//   * seed determinism — same (spec, seed) runs to byte-identical
//     summaries; different seeds diverge but stay valid;
//   * thread-count invariance — a grid of whole cities is byte-identical
//     between a 1-worker and a many-worker exp::Runner pool;
//   * telemetry-attach non-perturbation — observability must observe, not
//     steer;
//   * empty-fault no-perturbation — faults:pressure=0 and no faults
//     section are the same world;
//   * degradation monotonicity — scaling fault pressure can only add
//     injected faults and can only lower goal attainment.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "gen/scenario.hpp"
#include "gen/spec.hpp"
#include "sim/telemetry.hpp"
#include "support/metamorphic.hpp"

namespace sa::gen {
namespace {

namespace support = sa::test::support;

/// A small all-substrate city: fast enough for a corpus of runs, big
/// enough that every coupling and fault surface is live.
const char* kTownSpec =
    "world:horizon=80;multicore:nodes=1;"
    "cameras:count=6,objects=8,clusters=1;cloud:nodes=8;"
    "cpn:rows=3,cols=3,shortcuts=2;faults";

/// Runs a scenario to its horizon and serialises the summary in hexfloat
/// (bit-exact), so equality below means bitwise-equal trajectories.
std::string run_summary(const ScenarioSpec& spec, std::uint64_t seed,
                        Scenario::Options opts = {}) {
  Scenario world(spec, seed, opts);
  world.run();
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& [key, value] : world.summary()) {
    os << key << '=' << value << ';';
  }
  return os.str();
}

double summary_value(const Scenario& world, const std::string& key) {
  for (const auto& [k, v] : world.summary()) {
    if (k == key) return v;
  }
  ADD_FAILURE() << "summary has no row '" << key << "'";
  return 0.0;
}

TEST(ScenarioMetamorphic, SameSpecAndSeedReproducesByteIdentically) {
  const auto spec = ScenarioSpec::parse(kTownSpec);
  EXPECT_TRUE(support::reproduces(
      [&] { return run_summary(spec, 5); }, "same-seed city runs"));
}

TEST(ScenarioMetamorphic, DifferentSeedsDivergeButStayValid) {
  const auto spec = ScenarioSpec::parse(kTownSpec);
  EXPECT_NE(run_summary(spec, 5), run_summary(spec, 6));
  Scenario world(spec, 6);
  world.run();
  const double goal = summary_value(world, "goal");
  EXPECT_GE(goal, 0.0);
  EXPECT_LE(goal, 1.0);
  EXPECT_GT(world.engine().executed(), 0u);
}

TEST(ScenarioMetamorphic, SpecSeedPinsTheWorldAcrossRunSeeds) {
  auto spec = ScenarioSpec::parse(kTownSpec);
  spec.seed = 41;  // explicit spec seed overrides the run seed everywhere
  EXPECT_EQ(run_summary(spec, 1), run_summary(spec, 2));
}

TEST(ScenarioMetamorphic, GridOfCitiesIsThreadCountInvariant) {
  // The composite world inside the parallel runner: baseline and
  // self-aware variants across seeds must serialise byte-identically
  // whatever the pool size (the BENCH_e15.json contract, reduced).
  const auto spec = ScenarioSpec::parse(kTownSpec);
  exp::Grid g;
  g.name = "e15.reduced";
  g.variants = {"baseline", "self-aware"};
  g.seeds = {5, 6};
  g.task = [spec](const exp::TaskContext& ctx) -> exp::TaskOutput {
    Scenario::Options opts;
    opts.self_aware = ctx.variant == 1;
    opts.telemetry = ctx.telemetry;
    opts.tracer = ctx.tracer;
    opts.metrics = ctx.metrics;
    Scenario world(spec, ctx.seed, opts);
    world.run();
    return {world.summary()};
  };
  EXPECT_TRUE(support::thread_count_invariant(g));
}

TEST(ScenarioMetamorphic, AttachingTelemetryDoesNotPerturbTheTrajectory) {
  const auto spec = ScenarioSpec::parse(kTownSpec);
  const std::string bare = run_summary(spec, 7);

  sim::TelemetryBus bus;
  sim::RingBufferSink sink(1024);
  bus.add_sink(&sink);
  Scenario::Options opts;
  opts.telemetry = &bus;
  const std::string observed = run_summary(spec, 7, opts);

  EXPECT_TRUE(support::byte_identical(bare, observed,
                                      "bare vs telemetry-attached runs"));
  // The bus must actually have seen the world, or this proves nothing.
  EXPECT_GT(bus.count(sim::TelemetryBus::kObservation), 0u);
}

TEST(ScenarioMetamorphic, EmptyFaultPlanDoesNotPerturbTheTrajectory) {
  // faults:pressure=0 expands to the guaranteed-empty plan; the world it
  // runs must be byte-identical to one with no faults section at all
  // (binding fault surfaces and ladders without a plan is a no-op).
  auto quiet = ScenarioSpec::parse(kTownSpec);
  quiet.faults.enabled = false;
  auto zero = ScenarioSpec::parse(kTownSpec);
  zero.faults.pressure = 0.0;
  ASSERT_TRUE(zero.expand_faults(5).empty());
  EXPECT_TRUE(support::byte_identical(run_summary(quiet, 5),
                                      run_summary(zero, 5),
                                      "no-faults vs pressure-0 runs"));
}

TEST(ScenarioMetamorphic, FaultPressureMonotonicity) {
  // Run-under-transform: scaling only faults:pressure over a corpus of
  // seeds can only add injected faults, and the corpus-mean goal cannot
  // improve under strictly more failure.
  const std::vector<double> pressures = {0.0, 2.0, 8.0};
  const std::vector<std::uint64_t> seeds = {5, 6, 7};
  std::vector<double> injected(pressures.size(), 0.0);
  std::vector<double> goal(pressures.size(), 0.0);
  for (std::size_t k = 0; k < pressures.size(); ++k) {
    auto spec = ScenarioSpec::parse(kTownSpec);
    spec.faults.pressure = pressures[k];
    for (const std::uint64_t seed : seeds) {
      Scenario world(spec, seed);
      world.run();
      injected[k] += summary_value(world, "faults_injected");
      goal[k] += summary_value(world, "goal");
    }
    goal[k] /= static_cast<double>(seeds.size());
  }
  EXPECT_TRUE(support::monotone(injected,
                                support::Relation::kStrictlyIncreasing,
                                "corpus faults_injected vs pressure"));
  EXPECT_TRUE(support::monotone(goal, support::Relation::kNonIncreasing,
                                "corpus mean goal vs pressure"));
}

TEST(ScenarioMetamorphic, CitySanity) {
  // The flagship E15 world: all four substrates live on one engine, the
  // couplings move data, and the standing fault environment fires.
  Scenario city(ScenarioSpec::parse(ScenarioSpec::city_spec()), 61);
  ASSERT_NE(city.fleet(), nullptr);
  ASSERT_NE(city.autoscaler(), nullptr);
  ASSERT_NE(city.packet_network(), nullptr);
  ASSERT_EQ(city.edge_nodes(), 4u);
  EXPECT_FALSE(city.fault_plan().empty());
  EXPECT_GE(city.agents().size(), 5u);  // 4 edge managers + autoscaler
  city.run();
  EXPECT_GT(summary_value(city, "faults_injected"), 0.0);
  EXPECT_GT(summary_value(city, "reports_injected"), 0.0);
  EXPECT_GT(summary_value(city, "exchange_items"), 0.0);
  EXPECT_GT(summary_value(city, "cpn_delivery"), 0.5);
  const double goal = summary_value(city, "goal");
  EXPECT_GT(goal, 0.0);
  EXPECT_LE(goal, 1.0);
}

TEST(ScenarioMetamorphic, RejectsSubstratelessSpecs) {
  EXPECT_THROW(Scenario(ScenarioSpec::parse("world:horizon=10"), 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace sa::gen

// E15 — the smart-city composite stress scenario
// (paper Sections III and VII: self-awareness is argued to matter most in
// large, heterogeneous, interacting systems — not in any single substrate
// benchmarked alone).
//
// One generated ScenarioSpec wires all four substrates into ONE engine:
// smart cameras track street objects; their epoch reports travel a
// cognitive packet network to a volunteer-cloud backend; the backend's
// saturation offloads analytics onto multicore edge nodes; a standing
// fault environment presses on everything at once. Two variants face the
// byte-identical generated world (same topologies, workloads and fault
// schedules per seed):
//
//   baseline   — design-time choices everywhere: static manager(s),
//                homogeneous broadcast cameras, static autoscaler,
//                shortest-path routing, no exchange, no degradation;
//   self-aware — the paper's stack: learning cameras, Q-routing,
//                model-based autoscaling, self-aware managers with
//                degradation ladders, plus cross-domain knowledge
//                exchange.
//
// Every random draw comes from the spec's own per-section streams
// (sa::gen), so each metric — and the whole BENCH_e15.json — is
// bitwise-identical across --jobs N. --scenario SPEC replaces the city
// with any other generated world.
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/journal.hpp"
#include "ckpt/state.hpp"
#include "exp/harness.hpp"
#include "gen/scenario.hpp"
#include "gen/spec.hpp"
#include "serve/bridge.hpp"
#include "shard/world.hpp"
#include "sim/report.hpp"

namespace {

using namespace sa;

const std::vector<std::uint64_t> kSeeds{61, 62, 63};

/// Builds the city as a ShardedWorld at the cell's shard count (one shard
/// is the plain single-engine run) and wires the cell's seams onto its
/// engine, the coordinator when sharded: replays the recorded control
/// stream (--control-journal, or a resumed run's live journal) at its
/// original sim times and at the bridge's event order, so the replayed
/// trajectory byte-matches the served one; and in the served cell puts the
/// agents, the injector, the checkpoint hook and the shard counters on the
/// bridge, then attaches it. The arg parser already refused --checkpoint
/// at more than one shard.
exp::TaskOutput run_city(exp::Harness& h, const gen::ScenarioSpec& spec,
                         bool self_aware, const exp::TaskContext& ctx) {
  shard::ShardedWorld world(spec, ctx.seed,
                            {.shards = ctx.shards,
                             .scenario = {.self_aware = self_aware,
                                          .telemetry = ctx.telemetry,
                                          .tracer = ctx.tracer,
                                          .metrics = ctx.metrics}});
  gen::Scenario& city = world.world();

  ckpt::schedule_replay(city.engine(), ctx.control_journal, &city.injector());
  // Must outlive world.run(): the serve bridge's cmd=checkpoint hook calls
  // into it from engine-step boundaries for the duration of the run.
  ckpt::WorldCheckpoint wc;
  if (ctx.bridge != nullptr) {
    for (core::SelfAwareAgent* a : city.agents()) ctx.bridge->add_agent(a);
    ctx.bridge->set_injector(&city.injector());
    if (!ctx.checkpoint_path.empty()) {
      city.register_checkpoint(wc);
      ctx.bridge->set_checkpoint_hook(
          [&wc, &spec, path = std::string(ctx.checkpoint_path),
           seed = ctx.seed](double t) {
            ckpt::WorldCheckpoint::Meta meta;
            meta.t = t;
            meta.seed = seed;
            meta.recipe = spec.to_string();
            return wc.save_file(meta, path).ok();
          });
    }
    // Runs at coordinator publish events, i.e. while any shard engines
    // are barrier-paused — the counters are safe to read then.
    ctx.bridge->set_shard_source([&world] {
      serve::ShardSnapshot snap;
      snap.events = world.shard_events();
      snap.lag_seconds = world.lag_seconds();
      return snap;
    });
    ctx.bridge->attach(city.engine());
  }

  world.run();
  h.note_shard_events(world.shard_events());
  return {city.summary()};
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h("e15_city", argc, argv);

  gen::ScenarioSpec spec;
  try {
    spec = gen::ScenarioSpec::parse(h.options().scenario.empty()
                                        ? gen::ScenarioSpec::city_spec()
                                        : h.options().scenario);
    if (!spec.any_substrate()) {
      throw std::invalid_argument(
          "scenario: spec enables no substrate section");
    }
    shard::ShardedWorld::validate(spec, {.shards = h.options().shards});
  } catch (const std::exception& e) {
    std::cerr << "bench_e15_city: " << e.what() << "\n";
    return 2;
  }

  std::cout << "E15: generated smart-city composite — cameras -> packet "
               "network -> cloud\nbackend -> multicore edge, one engine, "
               "one standing fault environment.\nScenario: "
            << spec.to_string() << "\n"
            << h.seeds_for(kSeeds).size() << " seeds.\n\n";

  exp::Grid g;
  g.name = "e15.city";
  g.variants = {"baseline", "self-aware"};
  g.seeds = kSeeds;
  g.task = [&h, &spec](const exp::TaskContext& ctx) {
    return run_city(h, spec, ctx.variant == 1, ctx);
  };
  const auto r = h.run(std::move(g));

  sim::Table t("E15  smart city: composite goal attainment under faults",
               {"stack", "goal", "coverage", "delivery", "sla",
                "edge_util", "faults"});
  for (std::size_t v = 0; v < r.variants.size(); ++v) {
    t.add_row({r.variants[v], r.mean(v, "goal"), r.mean(v, "coverage"),
               r.mean(v, "cpn_delivery"), r.mean(v, "cloud_sla"),
               r.mean(v, "edge_utility"), r.mean(v, "faults_injected")});
  }
  t.print(std::cout);
  return h.finish();
}

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

/// Wires the cell's control seams onto the city's engine (the coordinator
/// on the sharded path): replays the recorded control stream
/// (--control-journal, or a resumed run's live journal) at its original
/// sim times and at the bridge's event order, so the replayed trajectory
/// byte-matches the served one; and in the served cell puts the agents and
/// the injector on the bridge. The caller attaches the bridge once its own
/// wiring is done.
void wire_control(gen::Scenario& city, const exp::TaskContext& ctx) {
  ckpt::schedule_replay(city.engine(), ctx.control_journal, &city.injector());
  if (ctx.bridge == nullptr) return;
  for (core::SelfAwareAgent* a : city.agents()) ctx.bridge->add_agent(a);
  ctx.bridge->set_injector(&city.injector());
}

/// Sharded path (--shards N > 1): the same world partitioned across N
/// engine shards, byte-identical summary (sa::shard). The serve/journal
/// seams stay on the coordinator engine, so --control-journal composes;
/// --checkpoint was already rejected by the arg parser.
exp::TaskOutput run_city_sharded(exp::Harness& h, const gen::ScenarioSpec& spec,
                                 bool self_aware,
                                 const exp::TaskContext& ctx) {
  shard::ShardedWorld::Options opts;
  opts.shards = ctx.shards;
  opts.self_aware = self_aware;
  opts.telemetry = ctx.telemetry;
  shard::ShardedWorld world(spec, ctx.seed, opts);
  gen::Scenario& city = world.world();

  wire_control(city, ctx);
  if (ctx.bridge != nullptr) {
    // Runs at coordinator publish events, i.e. while the shard engines
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

exp::TaskOutput run_city(const gen::ScenarioSpec& spec, bool self_aware,
                         const exp::TaskContext& ctx) {
  gen::Scenario::Options opts;
  opts.self_aware = self_aware;
  opts.telemetry = ctx.telemetry;
  opts.tracer = ctx.tracer;
  opts.metrics = ctx.metrics;
  gen::Scenario city(spec, ctx.seed, opts);

  wire_control(city, ctx);
  // Must outlive city.run(): the serve bridge's cmd=checkpoint hook calls
  // into it from engine-step boundaries for the duration of the run.
  ckpt::WorldCheckpoint wc;
  if (ctx.bridge != nullptr) {
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
    ctx.bridge->attach(city.engine());
  }

  city.run();
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
    if (ctx.shards > 1) {
      return run_city_sharded(h, spec, ctx.variant == 1, ctx);
    }
    return run_city(spec, ctx.variant == 1, ctx);
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

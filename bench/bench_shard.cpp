// bench_shard — sharded-execution scaling of one generated smart city
// (sa::shard; ISSUE 10's headline artifact, written to BENCH_shard.json).
//
// One large generated ScenarioSpec — by default ~102k cameras across 800
// districts feeding ~1M packet flows across 2000 CPN grids into a cloud
// backend with multicore edge offload and a standing fault environment —
// is run as a shard::ShardedWorld at shard counts 1, 2, 4 and 8 (variant
// rows). One shard is the single-engine run; every other row partitions
// the same world across N engine shards with the conservative barrier
// protocol. The trajectory is byte-identical for every row, so the
// substrate metrics double as a built-in correctness check (the bench
// fails if any row disagrees); the wall_ms, build_s, run_s, teardown_s
// and lag_s columns carry the scaling story. All are clock-derived, so the
// BENCH document keeps them under `measured` (each cell's wall time, its
// build/run/teardown phases and its lag), never among the compared
// metrics: two runs of one build give documents bench_diff.py calls
// equal.
// The rows run one at a time (--jobs is pinned to 1), so each wall time
// is measured without the other rows competing for cores. The rows are
// the shard counts, so --shards is pinned to 1 as well. --scenario SPEC
// swaps in any other generated world.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/harness.hpp"
#include "gen/spec.hpp"
#include "shard/world.hpp"
#include "sim/report.hpp"

namespace {

using namespace sa;

const std::vector<std::uint64_t> kSeeds{71};
const std::vector<std::size_t> kShardCounts{1, 2, 4, 8};

/// ~102k cameras (800 districts x 128), ~1M flows (2000 grids x 500).
/// The horizon is short: the point is events/second at scale, not a long
/// trajectory, and the event-order convention makes length irrelevant to
/// the byte-equality claim.
std::string big_city_spec() {
  return "world:horizon=40,exchange=20;"
         "cameras:count=128,objects=24,clusters=4,districts=800,"
         "epoch=10;"
         "cpn:rows=4,cols=6,shortcuts=4,flows=500,grids=2000;"
         "cloud:nodes=32;"
         "multicore:nodes=4;"
         "faults";
}

/// Wall seconds since `t0`.
double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Builds, runs and destroys one world, timing each phase.
exp::TaskOutput run_cell(const gen::ScenarioSpec& spec, std::size_t shards,
                         const exp::TaskContext& ctx) {
  exp::TaskOutput out;
  auto t0 = std::chrono::steady_clock::now();
  auto world = std::make_unique<shard::ShardedWorld>(
      spec, ctx.seed,
      shard::ShardedWorld::Options{.shards = shards,
                                   .scenario = {.telemetry = ctx.telemetry}});
  const double build_s = since(t0);
  t0 = std::chrono::steady_clock::now();
  world->run();
  const double run_s = since(t0);
  out.metrics = world->world().summary();
  const double lag_s = world->lag_seconds();
  t0 = std::chrono::steady_clock::now();
  world.reset();
  out.measured = {{"build_s", build_s},
                  {"run_s", run_s},
                  {"teardown_s", since(t0)},
                  {"lag_seconds", lag_s}};
  return out;
}

/// A cell's measured value `name` (0 when the cell reported none).
double measured(const exp::TaskResult& c, std::string_view name) {
  for (const auto& [key, value] : c.measured) {
    if (key == name) return value;
  }
  return 0.0;
}

/// True when every metric is bit-equal across all variants for every seed.
bool rows_identical(const exp::GridResult& r) {
  for (std::size_t s = 0; s < r.seeds.size(); ++s) {
    const exp::Metrics& ref = r.at(0, s).metrics;
    for (std::size_t v = 1; v < r.variants.size(); ++v) {
      if (r.at(v, s).metrics != ref) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // The speedup column compares wall times, so the rows run one at a
  // time, and each row sets its own shard count: --jobs=1 and --shards=1
  // go after the caller's flags and the last value wins.
  std::vector<const char*> args(argv, argv + argc);
  args.push_back("--jobs=1");
  args.push_back("--shards=1");
  exp::Harness h("shard", static_cast<int>(args.size()), args.data());

  gen::ScenarioSpec spec;
  try {
    spec = gen::ScenarioSpec::parse(h.options().scenario.empty()
                                        ? big_city_spec()
                                        : h.options().scenario);
    shard::ShardedWorld::validate(spec, {.shards = kShardCounts.back()});
  } catch (const std::exception& e) {
    std::cerr << "bench_shard: " << e.what() << "\n";
    return 2;
  }

  std::cout << "shard: one generated city at shard counts 1/2/4/8 — "
               "byte-identical\ntrajectory per count; wall-clock carries "
               "the scaling story.\nScenario: "
            << spec.to_string() << "\n"
            << h.seeds_for(kSeeds).size() << " seeds.\n\n";

  exp::Grid g;
  g.name = "shard.scale";
  for (const std::size_t n : kShardCounts) {
    g.variants.push_back("shards=" + std::to_string(n));
  }
  g.seeds = kSeeds;
  g.task = [&spec](const exp::TaskContext& ctx) {
    return run_cell(spec, kShardCounts[ctx.variant], ctx);
  };
  const auto r = h.run(std::move(g));

  sim::Table t("shard  scaling: one city, N engine shards",
               {"config", "goal", "coverage", "delivery", "wall_ms",
                "speedup", "build_s", "run_s", "teardown_s", "lag_s"});
  // Means over each variant's cells. A cell's wall time spans building,
  // running and tearing down its world; the phases split it.
  const std::vector<std::string_view> phases{"build_s", "run_s",
                                             "teardown_s", "lag_seconds"};
  std::vector<double> wall_ms(r.variants.size());
  std::vector<std::vector<double>> phase_s(
      r.variants.size(), std::vector<double>(phases.size()));
  const double cells = static_cast<double>(r.seeds.size());
  for (const exp::TaskResult& c : r.tasks) {
    wall_ms[c.variant] += 1e3 * c.wall_s / cells;
    for (std::size_t p = 0; p < phases.size(); ++p) {
      phase_s[c.variant][p] += measured(c, phases[p]) / cells;
    }
  }
  for (std::size_t v = 0; v < r.variants.size(); ++v) {
    const double wall = wall_ms[v];
    const std::vector<double>& ph = phase_s[v];
    t.add_row({r.variants[v], r.mean(v, "goal"), r.mean(v, "coverage"),
               r.mean(v, "cpn_delivery"), wall,
               wall > 0.0 ? wall_ms[0] / wall : 0.0, ph[0], ph[1], ph[2],
               ph[3]});
  }
  t.print(std::cout);

  const bool identical = r.errors() == 0 && rows_identical(r);
  std::cout << "\ntrajectory byte-identical across shard counts: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATION") << "\n";
  const int code = h.finish();
  return identical ? code : (code != 0 ? code : 1);
}

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
// fails if any row disagrees); wall_ms and lag_s carry the scaling story.
// The rows run one at a time (--jobs is pinned to 1), so each wall time
// is measured without the other rows competing for cores. The rows are
// the shard counts, so --shards is pinned to 1 as well. --scenario SPEC
// swaps in any other generated world.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
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

exp::TaskOutput run_cell(const gen::ScenarioSpec& spec, std::size_t shards,
                         const exp::TaskContext& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  exp::Metrics m;
  double lag = 0.0;
  {  // the world's teardown counts toward wall_ms
    shard::ShardedWorld world(
        spec, ctx.seed,
        {.shards = shards, .scenario = {.telemetry = ctx.telemetry}});
    world.run();
    m = world.world().summary();
    lag = world.lag_seconds();
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  m.emplace_back("lag_seconds", lag);
  m.emplace_back("wall_ms", wall_ms);
  return {std::move(m)};
}

/// True when every substrate metric (everything except the wall-clock and
/// lag rows) is bit-equal across all variants for every seed.
bool rows_identical(const exp::GridResult& r) {
  for (std::size_t s = 0; s < r.seeds.size(); ++s) {
    const exp::Metrics& ref = r.at(0, s).metrics;
    for (std::size_t v = 1; v < r.variants.size(); ++v) {
      const exp::Metrics& got = r.at(v, s).metrics;
      if (got.size() != ref.size()) return false;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (ref[i].first == "wall_ms" || ref[i].first == "lag_seconds") {
          continue;
        }
        if (got[i].first != ref[i].first ||
            got[i].second != ref[i].second) {
          return false;
        }
      }
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
                "speedup", "lag_s"});
  const double base = r.mean(0, "wall_ms");
  for (std::size_t v = 0; v < r.variants.size(); ++v) {
    const double wall = r.mean(v, "wall_ms");
    t.add_row({r.variants[v], r.mean(v, "goal"), r.mean(v, "coverage"),
               r.mean(v, "cpn_delivery"), wall,
               wall > 0.0 ? base / wall : 0.0, r.mean(v, "lag_seconds")});
  }
  t.print(std::cout);

  const bool identical = r.errors() == 0 && rows_identical(r);
  std::cout << "\ntrajectory byte-identical across shard counts: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATION") << "\n";
  const int code = h.finish();
  return identical ? code : (code != 0 ? code : 1);
}

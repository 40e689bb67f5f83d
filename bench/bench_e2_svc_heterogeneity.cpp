// E2 — "Learning to be different" in a smart camera network
// (paper Section II; Lewis et al. [13]).
//
// Claims operationalised:
//   (a) per-camera self-aware strategy learning matches or beats every
//       homogeneous (one-size-fits-all) strategy assignment on global
//       utility;
//   (b) the learned assignment is *heterogeneous* — cameras in different
//       local situations (dense cluster vs isolated ring) choose different
//       strategies, i.e. diversity emerges from self-awareness.
//
// Table 1: global outcomes per configuration.
// Table 2: learned strategy by camera group (cluster vs ring).
#include <iostream>
#include <string>
#include <vector>

#include "exp/harness.hpp"
#include "serve/bridge.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "sim/stats.hpp"
#include "svc/fleet.hpp"

namespace {

using namespace sa;
using namespace sa::svc;

constexpr int kEpochs = 400;
const std::vector<std::uint64_t> kSeeds{31, 32, 33};

NetworkParams world(std::uint64_t seed) {
  NetworkParams p;
  p.objects = 24;
  p.seed = seed;
  return p;
}

const char* strategy_label(std::size_t s) {
  switch (s) {
    case 0: return "broadcast";
    case 1: return "smooth";
    default: return "passive";
  }
}

exp::TaskOutput run(CameraFleet::Mode mode, Strategy fixed,
                    const exp::TaskContext& ctx) {
  const std::uint64_t seed = ctx.seed;
  auto net = Network::clustered_layout(world(seed));
  CameraFleet::Params p;
  p.mode = mode;
  p.fixed = fixed;
  p.seed = seed;
  // The harness's traced cell (--trace/--metrics) gets the observability
  // hooks; tracing derives everything from sim time, so metrics are
  // unchanged whether or not they are set.
  p.telemetry = ctx.telemetry;
  p.tracer = ctx.tracer;
  CameraFleet fleet(net, p);
  sim::MetricsRegistry* metrics = ctx.metrics;
  sim::MetricsRegistry::MetricId g_cov = 0, g_msg = 0, g_util = 0;
  if (metrics != nullptr) {
    g_cov = metrics->gauge("svc.coverage");
    g_msg = metrics->gauge("svc.messages");
    g_util = metrics->gauge("svc.global_utility");
  }
  // Event-driven run: every world step is an engine event; the fleet's
  // epoch work rides on the 25th step. Trajectory is identical to the old
  // synchronous run_epoch() loop.
  sim::Engine engine;
  // The served cell (--serve) additionally exposes this engine live: the
  // bridge schedules its publish events before anything else runs.
  if (ctx.bridge != nullptr) ctx.bridge->attach(engine);
  sim::RunningStats tail_cov, tail_msg, tail_u;
  int e = 0;
  fleet.bind(engine, 1.0, [&](const NetworkEpoch& ne) {
    if (e >= kEpochs / 2) {  // judge converged behaviour
      tail_cov.add(ne.coverage);
      tail_msg.add(ne.messages);
      tail_u.add(ne.global_utility);
    }
    if (metrics != nullptr) {
      metrics->set(g_cov, ne.coverage);
      metrics->set(g_msg, ne.messages);
      metrics->set(g_util, ne.global_utility);
      metrics->snapshot(static_cast<double>(e));
    }
    ++e;
  });
  engine.run_until(kEpochs * static_cast<double>(p.epoch_steps));
  exp::Metrics m{{"coverage", tail_cov.mean()},
                 {"msgs_per_epoch", tail_msg.mean()},
                 {"global_utility", tail_u.mean()},
                 {"diversity", fleet.diversity()}};
  // Cameras 0-3 form the dense cluster; 4-11 the sparse ring.
  std::size_t cluster_hist[kStrategies] = {};
  std::size_t ring_hist[kStrategies] = {};
  for (std::size_t c = 0; c < net.cameras(); ++c) {
    auto* hist = c < 4 ? cluster_hist : ring_hist;
    ++hist[static_cast<std::size_t>(net.strategy(c))];
  }
  for (std::size_t s = 0; s < kStrategies; ++s) {
    m.emplace_back(std::string("cluster.") + strategy_label(s),
                   static_cast<double>(cluster_hist[s]));
    m.emplace_back(std::string("ring.") + strategy_label(s),
                   static_cast<double>(ring_hist[s]));
  }
  return {std::move(m)};
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h("e2_svc_heterogeneity", argc, argv);
  std::cout << "E2: homogeneous strategies vs per-camera learning, "
            << kEpochs << " epochs x 25 steps, " << h.seeds_for(kSeeds).size()
            << " seeds. Cameras 0-3 cluster at the hotspot; 4-11 are an "
               "isolated ring.\n\n";

  struct Config {
    std::string name;
    CameraFleet::Mode mode;
    Strategy fixed;
  };
  const std::vector<Config> configs{
      {"homogeneous broadcast", CameraFleet::Mode::Homogeneous,
       Strategy::Broadcast},
      {"homogeneous smooth", CameraFleet::Mode::Homogeneous,
       Strategy::Smooth},
      {"homogeneous passive", CameraFleet::Mode::Homogeneous,
       Strategy::Passive},
      {"self-aware (learned)", CameraFleet::Mode::Learning,
       Strategy::Broadcast},
  };

  exp::Grid g;
  g.name = "e2";
  for (const auto& cfg : configs) g.variants.push_back(cfg.name);
  g.seeds = kSeeds;
  g.task = [&configs](const exp::TaskContext& ctx) {
    const auto& cfg = configs[ctx.variant];
    return run(cfg.mode, cfg.fixed, ctx);
  };
  const auto res = h.run(std::move(g));

  sim::Table t1("E2.1  global outcomes (tail half of run, mean over seeds)",
                {"configuration", "coverage", "msgs/epoch", "global_utility",
                 "diversity"});
  for (std::size_t v = 0; v < res.variants.size(); ++v) {
    t1.add_row({res.variants[v], res.mean(v, "coverage"),
                res.mean(v, "msgs_per_epoch"), res.mean(v, "global_utility"),
                res.mean(v, "diversity")});
  }
  t1.print(std::cout);

  // Strategy histograms of the learned configuration, summed over seeds.
  const std::size_t learned = res.variants.size() - 1;
  sim::Table t2(
      "E2.2  learned strategy counts by camera situation (all seeds)",
      {"group", "broadcast", "smooth", "passive"});
  for (const auto& [row, prefix] :
       {std::pair{"cluster (dense)", "cluster."},
        std::pair{"ring (isolated)", "ring."}}) {
    std::vector<sim::Cell> cells;
    cells.emplace_back(std::string(row));
    for (const char* s : {"broadcast", "smooth", "passive"}) {
      cells.emplace_back(static_cast<std::int64_t>(
          res.sum(learned, std::string(prefix) + s)));
    }
    t2.add_row(std::move(cells));
  }
  t2.print(std::cout);
  return h.finish();
}

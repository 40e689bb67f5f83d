// E4 — cognitive packet network under denial-of-service
// (paper Section III; Sakellari [38]; Gelenbe & Loukas [39]).
//
// Claim operationalised: the CPN self-awareness loop (per-node RL over
// observed route delays, substituted with Q-routing per DESIGN.md) keeps
// delivery rate and latency for legitimate traffic closer to their
// pre-attack levels than static shortest-path routing, while a flood
// attack congests the default corridors; after the attack it re-converges.
//
// Table 1: per routing variant, per attack window (before/during/after):
//          delivery rate, mean and p95 latency for legitimate packets.
// Table 2: degradation factors during the attack (the headline shape).
#include <iostream>
#include <string>
#include <vector>

#include "cpn/network.hpp"
#include "cpn/traffic.hpp"
#include "exp/harness.hpp"
#include "serve/bridge.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace {

using namespace sa;
using namespace sa::cpn;

constexpr double kBefore = 3000.0;  // ticks of pre-attack traffic
constexpr double kAttack = 3000.0;
constexpr double kAfter = 3000.0;
const std::vector<std::uint64_t> kSeeds{41, 42, 43};

const char* const kWindows[] = {"before", "during", "after"};

exp::TaskOutput run(PacketNetwork::Router router, bool defence,
                    const exp::TaskContext& ctx) {
  const std::uint64_t seed = ctx.seed;
  const auto topo = Topology::grid(4, 6, 4, seed);
  PacketNetwork::Params np;
  np.router = router;
  np.dos_defence = defence;
  np.seed = seed;
  PacketNetwork net(topo, np);
  // E4 has no per-node agents, so tracing here is coarse: the network's
  // telemetry feed plus one span per attack window on subject "cpn.bench"
  // (sim-time derived; the trajectory is unchanged).
  if (ctx.telemetry != nullptr) net.set_telemetry(ctx.telemetry);
  sim::SubjectId trace_subject = 0;
  sim::NameId n_window = 0, k_delivery = 0, k_mean_lat = 0;
  if (ctx.tracer != nullptr) {
    trace_subject = ctx.tracer->bus().intern_subject("cpn.bench");
    n_window = ctx.tracer->intern_name("window");
    k_delivery = ctx.tracer->intern_name("delivery");
    k_mean_lat = ctx.tracer->intern_name("mean_latency");
  }
  TrafficParams tp;
  tp.flows = 8;
  tp.legit_rate = 2.0;
  tp.attack_start = kBefore;
  tp.attack_end = kBefore + kAttack;
  tp.attack_rate = 25.0;
  tp.attackers = 3;
  tp.seed = seed;
  TrafficGenerator gen(topo, tp);

  // Event-driven run: injection and transit are two order-0 streams on one
  // engine (registration order keeps injection first each tick); the attack
  // windows become run_until() horizons. Identical to the old tick loop.
  sim::Engine engine;
  gen.bind(engine, net);
  net.bind(engine);
  // Served cell (--serve): expose this engine live over HTTP.
  if (ctx.bridge != nullptr) ctx.bridge->attach(engine);

  exp::Metrics m;
  const double ticks[] = {kBefore, kAttack, kAfter};
  double horizon = 0.0;
  for (int w = 0; w < 3; ++w) {
    const double start = horizon;
    horizon += ticks[w];
    auto span = ctx.tracer != nullptr
                    ? ctx.tracer->span(start, trace_subject, n_window)
                    : sim::Tracer::Span{};
    engine.run_until(horizon);
    const auto s = net.harvest();
    if (span) {
      span.arg(k_delivery, s.delivery_rate());
      span.arg(k_mean_lat, s.mean_latency);
      span.end_at(horizon);
    }
    const std::string prefix = std::string(kWindows[w]) + ".";
    m.emplace_back(prefix + "delivery", s.delivery_rate());
    m.emplace_back(prefix + "mean_lat", s.mean_latency);
    m.emplace_back(prefix + "p95_lat", s.p95_latency);
  }
  return {std::move(m)};
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h("e4_cpn", argc, argv);
  std::cout << "E4: DoS resilience — static shortest-path vs self-aware "
               "Q-routing (CPN loop).\nFlood of 25 pkts/tick from 3 "
               "attackers onto the central node during the middle window; "
            << h.seeds_for(kSeeds).size() << " seeds.\n\n";

  struct Config {
    std::string name;
    PacketNetwork::Router router;
    bool defence;
  };
  const std::vector<Config> configs{
      {"static", PacketNetwork::Router::Static, false},
      {"static+defence", PacketNetwork::Router::Static, true},
      {"q-routing", PacketNetwork::Router::QRouting, false},
      {"self-aware (q+defence)", PacketNetwork::Router::QRouting, true},
  };

  exp::Grid g;
  g.name = "e4";
  for (const auto& cfg : configs) g.variants.push_back(cfg.name);
  g.seeds = kSeeds;
  g.task = [&configs](const exp::TaskContext& ctx) {
    const auto& cfg = configs[ctx.variant];
    return run(cfg.router, cfg.defence, ctx);
  };
  const auto res = h.run(std::move(g));

  sim::Table t1("E4.1  legitimate-traffic QoS by attack window",
                {"router", "window", "delivery", "mean_lat", "p95_lat"});
  for (std::size_t v = 0; v < res.variants.size(); ++v) {
    for (const char* win : kWindows) {
      const std::string prefix = std::string(win) + ".";
      t1.add_row({res.variants[v], std::string(win),
                  res.mean(v, prefix + "delivery"),
                  res.mean(v, prefix + "mean_lat"),
                  res.mean(v, prefix + "p95_lat")});
    }
  }
  t1.print(std::cout);

  sim::Table t2("E4.2  degradation during attack (during / before)",
                {"router", "latency_x", "delivery_drop"});
  for (std::size_t v = 0; v < res.variants.size(); ++v) {
    t2.add_row({res.variants[v],
                res.mean(v, "during.mean_lat") / res.mean(v, "before.mean_lat"),
                res.mean(v, "before.delivery") -
                    res.mean(v, "during.delivery")});
  }
  t2.print(std::cout);
  return h.finish();
}

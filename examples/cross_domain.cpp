// Example: two self-aware subsystems from different domains sharing one
// simulated timeline.
//
// An edge appliance (the multicore platform, controlled every 0.5 s) and a
// volunteer-cloud backend (the autoscaler, controlled every 10 s) run on
// the SAME discrete-event engine: twenty edge control epochs fire for every
// cloud one, and at the coincident instants the event order — substrate
// dynamics, then control, then knowledge exchange — is deterministic. The
// two controllers never call each other; instead the AgentRuntime swaps
// their public knowledge every 30 s, so the cloud agent can see the edge
// box's power draw and the edge agent the cloud's SLA. One telemetry bus
// collects every observation, decision, and failure from both domains.
//
// Each domain also records decision provenance through its OWN tracer,
// with a distinct TraceId namespace (edge = 1, cloud = 2, the high 16
// bits of every id). Stitching the two recorded streams into one is then
// safe: ids stay globally unique even though both counters start at 1 —
// and exp::merge_perfetto() turns the two records into ONE Perfetto file
// with flow arrows drawn across the agent boundary at every knowledge
// exchange.
//
// Run: ./build/examples/cross_domain
//      ./build/examples/cross_domain --merged-trace merged.json
//      ./build/examples/cross_domain --serve 8080   # then curl /metrics
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cloud/autoscaler.hpp"
#include "core/runtime.hpp"
#include "exp/trace_json.hpp"
#include "multicore/manager.hpp"
#include "multicore/workload.hpp"
#include "sim/metrics.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"

#ifdef SA_SERVE_ENABLED
#include "serve/bridge.hpp"
#include "serve/server.hpp"
#endif

int main(int argc, char** argv) {
  using namespace sa;

  // Optional flags: --merged-trace PATH, --serve PORT.
  std::string merged_path;
  int serve_port = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--merged-trace") == 0 && i + 1 < argc) {
      merged_path = argv[++i];
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_port = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--merged-trace PATH] [--serve PORT]\n",
                   argv[0]);
      return 2;
    }
  }

  sim::Engine engine;
  core::AgentRuntime runtime(engine);
  sim::MetricsRegistry metrics;
  runtime.set_metrics(&metrics);

  // One bus for both domains; keep the last few thousand events around.
  sim::TelemetryBus bus;
  sim::RingBufferSink recent(4096);
  bus.add_sink(&recent);

  // One tracer per domain, namespaced so the merged stream stays unique.
  sim::Tracer edge_tracer(bus, /*enabled=*/true, /*ns=*/1);
  sim::Tracer cloud_tracer(bus, /*enabled=*/true, /*ns=*/2);

  // --- Fast loop: the edge appliance (control epoch 0.5 s) ---------------
  multicore::Platform platform(multicore::PlatformConfig::big_little(2, 4),
                               21);
  auto workload = multicore::PhasedWorkload::standard();
  multicore::Manager::Params mp;
  mp.seed = 21;
  mp.telemetry = &bus;
  mp.tracer = &edge_tracer;
  multicore::Manager manager(platform, mp);
  engine.every(
      mp.epoch_s,
      [&] {
        workload.apply(platform);
        return true;
      },
      core::AgentRuntime::kOrderDynamics);
  manager.bind(engine);

  // --- Slow loop: the cloud backend (control epoch 10 s) -----------------
  cloud::Cluster::Params cp;
  cp.nodes = 24;
  cp.seed = 22;
  cloud::Cluster cluster(cp);
  cloud::DemandModel::Params dp;
  dp.base = 60.0;
  dp.diurnal_amp = 0.3;
  cloud::DemandModel demand(dp);
  cloud::Autoscaler::Params ap;
  ap.seed = 22;
  ap.telemetry = &bus;
  ap.tracer = &cloud_tracer;
  cloud::Autoscaler autoscaler(cluster, demand, ap);
  autoscaler.bind(engine);

  // --- Cross-domain knowledge exchange every 30 s ------------------------
  runtime.schedule_exchange({&manager.agent(), &autoscaler.agent()}, 30.0);

  // Mark each exchange round in BOTH provenance streams: a zero-length
  // "exchange" span per tracer (merge_perfetto's default stitch point).
  // Registered after the real exchange at the same engine order, so the
  // marker lands once the knowledge swap at that instant is done.
  const sim::SubjectId x_subject = bus.intern_subject("exchange");
  const sim::NameId edge_xn = edge_tracer.intern_name("exchange");
  const sim::NameId cloud_xn = cloud_tracer.intern_name("exchange");
  engine.every(
      30.0,
      [&] {
        const double t = engine.now();
        edge_tracer.span(t, x_subject, edge_xn).end();
        cloud_tracer.span(t, x_subject, cloud_xn).end();
        return true;
      },
      core::AgentRuntime::kOrderExchange);

#ifdef SA_SERVE_ENABLED
  // Optional live observability: GET /metrics, /status, /events while the
  // run is in flight; POST /control pauses/resumes it.
  serve::SimBridge bridge;
  serve::Server::Options sopts;
  sopts.port = static_cast<std::uint16_t>(serve_port < 0 ? 0 : serve_port);
  serve::Server server(sopts);
  if (serve_port >= 0) {
    bridge.set_metrics(&metrics);
    bridge.set_telemetry(&bus);
    bridge.add_agent(&manager.agent());
    bridge.add_agent(&autoscaler.agent());
    bridge.attach(engine);
    bridge.install(server);
    if (!server.start()) {
      std::fprintf(stderr, "serve: %s\n", server.error().c_str());
      return 2;
    }
    std::printf("serving on 127.0.0.1:%u (try /metrics, /status, /events)\n",
                server.port());
  }
#else
  if (serve_port >= 0) {
    std::fprintf(stderr, "--serve requires a build with -DSA_SERVE=ON\n");
    return 2;
  }
#endif

  engine.run_until(600.0);  // ten simulated minutes

  std::printf("after %.0f s: %zu events executed\n", engine.now(),
              engine.executed());
  std::printf("edge   : utility %.3f, mean power %.2f W over %zu epochs\n",
              manager.utility().mean(), manager.power().mean(),
              manager.utility().count());
  std::printf("cloud  : SLA %.3f, %zu nodes enrolled over %zu epochs\n",
              autoscaler.sla().mean(), autoscaler.target(),
              autoscaler.sla().count());
  std::printf("runtime: %zu knowledge items exchanged\n",
              runtime.items_exchanged());

  std::printf("telemetry: %zu observations, %zu decisions, %zu failures\n",
              bus.count(sim::TelemetryBus::kObservation),
              bus.count(sim::TelemetryBus::kDecision),
              bus.count(sim::TelemetryBus::kFailure));
  sim::RunningStats decisions;
  for (const auto* r : recent.by_category(sim::TelemetryBus::kDecision)) {
    decisions.add(r->value);
  }
  std::printf("last %zu events buffered; buffered decision values mean %.2f\n",
              recent.size(), decisions.mean());

  // Each agent now holds the other domain's public self-description.
  const auto& cloud_kb = autoscaler.agent().knowledge();
  const auto& edge_kb = manager.agent().knowledge();
  if (cloud_kb.contains("shared.multicore-mgr.power")) {
    std::printf("cloud agent sees edge power: %.2f W\n",
                cloud_kb.number("shared.multicore-mgr.power"));
  }
  if (edge_kb.contains("shared.autoscaler.sla")) {
    std::printf("edge agent sees cloud SLA: %.3f\n",
                edge_kb.number("shared.autoscaler.sla"));
  }

  // Stitch the two domains' trace streams: with per-tracer namespaces in
  // the high bits, ids never collide even though both counters run from 1.
  std::vector<sim::TraceId> stitched;
  for (const auto* tracer : {&edge_tracer, &cloud_tracer}) {
    for (const auto& ev : tracer->events()) {
      if (ev.id != 0) stitched.push_back(ev.id);
    }
  }
  std::sort(stitched.begin(), stitched.end());
  stitched.erase(std::unique(stitched.begin(), stitched.end()),
                 stitched.end());
  std::size_t from_edge = 0, from_cloud = 0;
  for (const sim::TraceId id : stitched) {
    if (sim::trace_namespace_of(id) == 1) ++from_edge;
    if (sim::trace_namespace_of(id) == 2) ++from_cloud;
  }
  std::printf(
      "traces : %zu spans (edge) + %zu spans (cloud); stitched ids "
      "%zu, all unique (%zu edge ns, %zu cloud ns)\n",
      edge_tracer.spans(), cloud_tracer.spans(), stitched.size(), from_edge,
      from_cloud);

  // One Perfetto file for both agents: each tracer becomes its own
  // process track, and flow arrows are synthesized between consecutive
  // "exchange" spans of different tracers — the knowledge hand-overs.
  exp::MergeStats ms;
  const exp::Json merged =
      exp::merge_perfetto({&edge_tracer, &cloud_tracer}, {}, &ms);
  std::printf(
      "merged : %zu tracers, %zu events, %zu exchange points, "
      "%zu cross-agent flow links\n",
      ms.tracers, ms.events, ms.stitch_points, ms.stitches);
  if (!merged_path.empty()) {
    std::ofstream os(merged_path);
    merged.dump(os, /*indent=*/-1);
    os << "\n";
    std::printf("merged trace written to %s (open in ui.perfetto.dev)\n",
                merged_path.c_str());
  }

#ifdef SA_SERVE_ENABLED
  server.stop();
#endif
  return 0;
}

// Serve-load bench: thousand-client load against a live sa::serve endpoint
// while a reduced E1 grid runs underneath — the "heavy traffic" story made
// measurable.
//
// An sa::loadgen pool (N connect-per-request scrapers + M SSE subscribers
// + periodic POST /control no-ops) hammers the endpoint of a running
// multicore grid. The bench emits BENCH_serve.json with client-side
// p50/p90/p99/p99.9 per route, the server's own histogram percentiles for
// the same routes (cross-checked: the server must have served at least as
// many requests per route as the clients completed), and the timing-free
// grid trajectory.
//
// Determinism contract: the bridge + server are attached in the QUIET run
// too (--clients 0 --sse 0 --controllers 0), so the sim trajectory —
// including the bridge's publish events — is byte-identical between quiet
// and loaded runs. CI writes both trajectories via --trajectory and
// byte-compares them.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "exp/args.hpp"
#include "exp/harness.hpp"
#include "exp/runner.hpp"
#include "loadgen/loadgen.hpp"
#include "multicore/manager.hpp"
#include "multicore/workload.hpp"
#include "serve/bridge.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"

namespace {

using namespace sa;

struct LoadArgs {
  unsigned clients = 64;      ///< scraper connections
  unsigned sse = 4;           ///< SSE subscriber streams
  unsigned controllers = 1;   ///< periodic POST /control threads
  double duration_s = 3.0;    ///< minimum load window (from pool start)
  std::uint64_t load_seed = 1;
  std::string trajectory;     ///< timing-free grid JSON output path
  std::string expose;         ///< final /metrics self-scrape output path
  std::string token;          ///< control token (server + clients)
};

std::string parse_unsigned(std::string_view value, unsigned& out) {
  char* end = nullptr;
  const std::string s(value);
  const unsigned long v = std::strtoul(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return "expected a non-negative integer";
  out = static_cast<unsigned>(v);
  return "";
}

/// Reduced E1 (multicore) grid, as in serve_determinism_test: static vs
/// self-aware management. The (self-aware, seed 11) cell always runs with
/// the bridge attached — quiet and loaded runs share the exact event set.
exp::Grid load_grid(serve::SimBridge* bridge, sim::TelemetryBus* bus) {
  exp::Grid g;
  g.name = "e1.load";
  g.variants = {"static", "self-aware"};
  g.seeds = {11, 12};
  g.task = [bridge, bus](const exp::TaskContext& ctx) -> exp::TaskOutput {
    const bool served = ctx.variant == 1 && ctx.seed == 11;
    multicore::Platform platform(multicore::PlatformConfig::big_little(2, 4),
                                 ctx.seed);
    auto workload = multicore::PhasedWorkload::standard();
    multicore::Manager::Params p;
    p.variant = ctx.variant == 0 ? multicore::Manager::Variant::Static
                                 : multicore::Manager::Variant::SelfAware;
    p.seed = ctx.seed;
    if (served) p.telemetry = bus;
    multicore::Manager mgr(platform, p);

    sim::Engine engine;
    engine.every(
        p.epoch_s,
        [&] {
          workload.apply(platform);
          return true;
        },
        0);
    sim::RunningStats utility, power, latency;
    mgr.bind(engine, 0.0, [&](double u) {
      utility.add(u);
      power.add(mgr.last_stats().mean_power);
      latency.add(mgr.last_stats().p95_latency);
    });
    if (served) {
      bridge->add_agent(&mgr.agent());
      bridge->attach(engine);
    }
    engine.run_until(120 * p.epoch_s);
    return {{{"utility", utility.mean()},
             {"power_w", power.mean()},
             {"p95_s", latency.mean()},
             {"cap_viol", mgr.cap_violation_rate()}}};
  };
  return g;
}

exp::Json percentiles_json(const serve::LatencyHistogram::Snapshot& h) {
  exp::Json out = exp::Json::object();
  out["count"] = static_cast<std::int64_t>(h.count);
  out["p50_s"] = h.quantile(0.50);
  out["p90_s"] = h.quantile(0.90);
  out["p99_s"] = h.quantile(0.99);
  out["p999_s"] = h.quantile(0.999);
  out["mean_s"] =
      h.count ? h.sum_s() / static_cast<double>(h.count) : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Options opts;
  LoadArgs load;
  exp::StandardArgs table;
  table.add({"--clients", "", "N",
             "concurrent scraper connections (default 64; 0 = quiet run)",
             [&load](std::string_view v, exp::Options&) {
               return parse_unsigned(v, load.clients);
             }});
  table.add({"--sse", "", "M", "concurrent SSE subscriber streams (default 4)",
             [&load](std::string_view v, exp::Options&) {
               return parse_unsigned(v, load.sse);
             }});
  table.add({"--controllers", "", "K",
             "periodic POST /control client threads (default 1)",
             [&load](std::string_view v, exp::Options&) {
               return parse_unsigned(v, load.controllers);
             }});
  table.add({"--duration", "", "SEC",
             "minimum load window in seconds (default 3)",
             [&load](std::string_view v, exp::Options&) {
               char* end = nullptr;
               const std::string s(v);
               load.duration_s = std::strtod(s.c_str(), &end);
               return end == s.c_str() + s.size() && load.duration_s >= 0
                          ? std::string{}
                          : std::string("expected a non-negative number");
             }});
  table.add({"--load-seed", "", "S",
             "base seed of the per-client splitmix64 pacing streams",
             [&load](std::string_view v, exp::Options&) {
               unsigned s = 0;
               const std::string err = parse_unsigned(v, s);
               load.load_seed = s;
               return err;
             }});
  table.add({"--trajectory", "", "PATH",
             "write the timing-free grid JSON (byte-identical quiet vs "
             "loaded)",
             [&load](std::string_view v, exp::Options&) {
               load.trajectory = std::string(v);
               return std::string{};
             }});
  table.add({"--expose", "", "PATH",
             "write the final /metrics self-scrape to PATH",
             [&load](std::string_view v, exp::Options&) {
               load.expose = std::string(v);
               return std::string{};
             }});
  table.add({"--token", "", "T", "control token (server check + clients)",
             [&load](std::string_view v, exp::Options&) {
               load.token = std::string(v);
               return std::string{};
             }});
  const std::string err = table.parse(argc, argv, opts);
  if (opts.help) {
    std::cout << table.usage(argv[0]);
    return 0;
  }
  if (!err.empty()) {
    std::cerr << err << "\n" << table.usage(argv[0]);
    return 2;
  }

  const auto wall_start = std::chrono::steady_clock::now();

  sim::TelemetryBus bus;
  serve::SimBridge::Options bopts;
  bopts.publish_period = 0.05;
  bopts.control_token = load.token;
  serve::SimBridge bridge(bopts);
  bridge.set_telemetry(&bus);

  serve::Server::Options sopts;
  if (opts.serve_port > 0) {
    sopts.port = static_cast<std::uint16_t>(opts.serve_port);
  }
  // A handful of workers against thousands of clients is the point: the
  // connect-per-request clients cycle through the pool via the backlog.
  sopts.workers = 6 + load.sse;
  sopts.listen_backlog = 1024;
  sopts.read_timeout_ms = 2000;
  sopts.write_timeout_ms = 2000;
  sopts.slow_request_threshold_s = 0.01;
  serve::Server server(sopts);
  bridge.install(server);
  if (!server.start()) {
    std::cerr << "serve: " << server.error() << "\n";
    return 1;
  }
  std::cout << "serve_load: live on http://127.0.0.1:" << server.port()
            << " (workers " << sopts.workers << ")\n";

  loadgen::Options lopts;
  lopts.port = server.port();
  lopts.scrapers = load.clients;
  lopts.sse = load.sse;
  lopts.controllers = load.controllers;
  lopts.keep_alive = false;  // cycle the worker pool through every client
  lopts.seed = load.load_seed;
  lopts.timeout_ms = 5000;
  lopts.control_token = load.token;
  loadgen::Pool pool(lopts);
  pool.start();

  exp::Runner runner(opts.jobs);
  const exp::GridResult result =
      runner.run("serve_load", load_grid(&bridge, &bus));

  if (!load.trajectory.empty()) {
    std::ofstream out(load.trajectory);
    out << exp::to_json(result).dump() << "\n";
    if (!out) {
      std::cerr << "serve_load: cannot write " << load.trajectory << "\n";
      return 1;
    }
  }

  // Keep the load window open: clients hammer the post-run snapshots until
  // the requested duration has elapsed.
  while (std::chrono::steady_clock::now() - wall_start <
         std::chrono::duration<double>(load.duration_s)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Self-scrape while the pool is still live, so gauges show real load.
  int scrape_status = 0;
  const std::string scrape =
      loadgen::fetch("127.0.0.1", server.port(), "/metrics", 5000,
                     &scrape_status);
  if (!load.expose.empty()) {
    std::ofstream out(load.expose);
    out << scrape;
  }

  pool.stop();
  const loadgen::Report report = pool.report();
  const serve::ServerStats::Snapshot self = server.stats().snapshot();
  server.stop();

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  bool ok = result.errors() == 0;
  if (scrape_status != 200 ||
      scrape.find("sa_serve_request_duration_seconds_bucket") ==
          std::string::npos) {
    std::cerr << "serve_load: self-scrape missing request-duration "
                 "histograms (status "
              << scrape_status << ")\n";
    ok = false;
  }
  if (pool.clients() > 0 && report.connects == 0) {
    std::cerr << "serve_load: no client ever connected\n";
    ok = false;
  }

  exp::Json doc = exp::Json::object();
  doc["schema"] = 2;
  doc["experiment"] = "serve_load";
  exp::Json meta = exp::Json::object();
  meta["git_rev"] = exp::git_rev();
  meta["clients"] = static_cast<std::int64_t>(load.clients);
  meta["sse_clients"] = static_cast<std::int64_t>(load.sse);
  meta["controllers"] = static_cast<std::int64_t>(load.controllers);
  meta["duration_s"] = load.duration_s;
  meta["load_seed"] = static_cast<std::int64_t>(load.load_seed);
  doc["meta"] = std::move(meta);
  doc["grids"] = exp::Json::array();
  doc["grids"].push_back(exp::to_json(result));

  exp::Json client = exp::Json::object();
  for (std::size_t r = 0; r < serve::kRouteClasses; ++r) {
    exp::Json route = percentiles_json(report.routes[r].latency);
    route["requests"] = static_cast<std::int64_t>(report.routes[r].requests);
    route["errors"] = static_cast<std::int64_t>(report.routes[r].errors);
    client[serve::route_label(static_cast<serve::RouteClass>(r))] =
        std::move(route);
  }
  client["connects"] = static_cast<std::int64_t>(report.connects);
  client["connect_failures"] =
      static_cast<std::int64_t>(report.connect_failures);
  client["bytes_received"] = static_cast<std::int64_t>(report.bytes_received);
  doc["client"] = std::move(client);

  exp::Json server_side = exp::Json::object();
  for (std::size_t r = 0; r < serve::kRouteClasses; ++r) {
    server_side[serve::route_label(static_cast<serve::RouteClass>(r))] =
        percentiles_json(self.routes[r]);
  }
  server_side["queue_wait"] = percentiles_json(self.queue_wait);
  server_side["keepalive_reuses"] =
      static_cast<std::int64_t>(self.keepalive_reuses);
  server_side["write_timeouts"] =
      static_cast<std::int64_t>(self.write_timeouts);
  server_side["request_bytes"] = static_cast<std::int64_t>(self.request_bytes);
  server_side["response_bytes"] =
      static_cast<std::int64_t>(self.response_bytes);
  doc["server"] = std::move(server_side);

  // Cross-check: every request a client completed was served, so the
  // server-side histogram count per route must be at least the client's.
  exp::Json consistency = exp::Json::array();
  for (std::size_t r = 0; r < serve::kRouteClasses; ++r) {
    const std::uint64_t client_n = report.routes[r].requests;
    const std::uint64_t server_n = self.routes[r].count;
    const bool route_ok = server_n >= client_n;
    exp::Json row = exp::Json::object();
    row["route"] = serve::route_label(static_cast<serve::RouteClass>(r));
    row["ok"] = route_ok;
    consistency.push_back(std::move(row));
    if (!route_ok) {
      std::cerr << "serve_load: server served fewer "
                << serve::route_label(static_cast<serve::RouteClass>(r))
                << " requests (" << server_n << ") than clients completed ("
                << client_n << ")\n";
      ok = false;
    }
  }
  doc["consistency"] = std::move(consistency);

  // Run-dependent fields in the harness document's `measured` layout.
  exp::Json measured = exp::Json::object();
  measured["wall_clock_s"] = wall;
  measured["peak_rss_mb"] = exp::peak_rss_mb();
  measured["jobs"] = static_cast<std::int64_t>(runner.jobs());
  doc["measured"] = std::move(measured);

  if (!opts.json.empty()) {
    std::ofstream out(opts.json);
    doc.dump(out);
    out << "\n";
    if (!out) {
      std::cerr << "serve_load: cannot write " << opts.json << "\n";
      ok = false;
    }
  }

  std::cout << "serve_load: " << report.connects << " connects, "
            << report.connect_failures << " connect failures, wall "
            << wall << " s\n";
  std::cout << "route        client_p50  client_p99  server_p50  server_p99"
               "  requests\n";
  for (std::size_t r = 0; r < serve::kRouteClasses; ++r) {
    const auto& cl = report.routes[r].latency;
    const auto& sv = self.routes[r];
    if (cl.count == 0 && sv.count == 0) continue;
    char line[160];
    std::snprintf(line, sizeof line,
                  "%-12s %10.6f  %10.6f  %10.6f  %10.6f  %8llu\n",
                  serve::route_label(static_cast<serve::RouteClass>(r)),
                  cl.quantile(0.50), cl.quantile(0.99), sv.quantile(0.50),
                  sv.quantile(0.99),
                  static_cast<unsigned long long>(
                      report.routes[r].requests));
    std::cout << line;
  }
  return ok ? 0 : 1;
}

// The sa::serve acceptance contract: attaching the live control plane to a
// running experiment — with a busy scraper hammering /metrics + /status
// and an SSE subscriber draining /events throughout — leaves the
// trajectory BYTE-identical to an unserved run. Reduced E1 (multicore)
// and E4 (CPN) grids, serialised through the timing-free JSON form, as in
// parallel_determinism_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "cpn/network.hpp"
#include "cpn/traffic.hpp"
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
#include "../serve/test_client.hpp"

namespace {

using namespace sa;
namespace client = sa::serve::testing;

/// Background load: one thread alternating GET /metrics and /status as
/// fast as responses come back, one thread holding an SSE stream open.
class ScrapeLoad {
 public:
  void start(unsigned short port) {
    scraper_ = std::thread([this, port] {
      while (!stop_.load()) {
        (void)client::http_get(port, "/metrics");
        (void)client::http_get(port, "/status");
      }
    });
    sse_ = std::thread([this, port] {
      const int fd = client::connect_loopback(port);
      if (fd < 0) return;
      timeval tv{};
      tv.tv_usec = 100 * 1000;  // poll the stop flag every 100 ms
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      const std::string req = "GET /events HTTP/1.1\r\n\r\n";
      ::send(fd, req.data(), req.size(), 0);
      char buf[4096];
      while (!stop_.load()) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) bytes_ += static_cast<std::size_t>(n);
        if (n == 0) break;  // server closed
      }
      ::close(fd);
    });
  }
  void finish() {
    stop_.store(true);
    if (scraper_.joinable()) scraper_.join();
    if (sse_.joinable()) sse_.join();
  }
  [[nodiscard]] std::size_t sse_bytes() const { return bytes_; }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> bytes_{0};
  std::thread scraper_, sse_;
};

/// A bridge tuned to publish often and drop SSE events aggressively (tiny
/// queue): maximum server-side churn while the designated cell runs.
serve::SimBridge::Options churn_options() {
  serve::SimBridge::Options opts;
  opts.publish_period = 0.05;
  opts.sse_queue = 16;
  return opts;
}

/// Reduced E4: static vs self-aware routing through a short DoS window,
/// engine-driven. When `bridge` is non-null the (self-aware, seed 41) cell
/// runs served: telemetry flows to the bridge's fanout and the bridge's
/// publish/drain event rides the engine.
exp::Grid cpn_grid(serve::SimBridge* bridge, sim::TelemetryBus* bus) {
  exp::Grid g;
  g.name = "e4.served";
  g.variants = {"static", "self-aware"};
  g.seeds = {41, 42};
  g.task = [bridge, bus](const exp::TaskContext& ctx) -> exp::TaskOutput {
    const bool served =
        bridge != nullptr && ctx.variant == 1 && ctx.seed == 41;
    const auto topo = cpn::Topology::grid(4, 6, 4, ctx.seed);
    cpn::PacketNetwork::Params np;
    np.router = ctx.variant == 0 ? cpn::PacketNetwork::Router::Static
                                 : cpn::PacketNetwork::Router::QRouting;
    np.dos_defence = ctx.variant == 1;
    np.seed = ctx.seed;
    cpn::PacketNetwork net(topo, np);
    if (served) net.set_telemetry(bus);
    cpn::TrafficParams tp;
    tp.flows = 8;
    tp.legit_rate = 2.0;
    tp.attack_start = 300;
    tp.attack_end = 600;
    tp.attack_rate = 25.0;
    tp.attackers = 3;
    tp.seed = ctx.seed;
    cpn::TrafficGenerator gen(topo, tp);

    sim::Engine engine;
    gen.bind(engine, net);
    net.bind(engine);
    if (served) bridge->attach(engine);

    exp::Metrics m;
    double horizon = 0.0;
    for (const char* window : {"before", "during", "after"}) {
      horizon += 300.0;
      engine.run_until(horizon);
      const auto s = net.harvest();
      const std::string prefix = std::string(window) + ".";
      m.emplace_back(prefix + "delivery", s.delivery_rate());
      m.emplace_back(prefix + "mean_lat", s.mean_latency);
      m.emplace_back(prefix + "p95_lat", s.p95_latency);
    }
    return {std::move(m)};
  };
  return g;
}

/// Reduced E1: static vs self-aware multicore management, engine-driven.
/// The served cell additionally reports its agent through /status.
exp::Grid multicore_grid(serve::SimBridge* bridge, sim::TelemetryBus* bus) {
  exp::Grid g;
  g.name = "e1.served";
  g.variants = {"static", "self-aware"};
  g.seeds = {11, 12};
  g.task = [bridge, bus](const exp::TaskContext& ctx) -> exp::TaskOutput {
    const bool served =
        bridge != nullptr && ctx.variant == 1 && ctx.seed == 11;
    multicore::Platform platform(
        multicore::PlatformConfig::big_little(2, 4), ctx.seed);
    auto workload = multicore::PhasedWorkload::standard();
    multicore::Manager::Params p;
    p.variant = ctx.variant == 0 ? multicore::Manager::Variant::Static
                                 : multicore::Manager::Variant::SelfAware;
    p.seed = ctx.seed;
    if (served) p.telemetry = bus;
    multicore::Manager mgr(platform, p);

    sim::Engine engine;
    engine.every(p.epoch_s,
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

using GridFactory = exp::Grid (*)(serve::SimBridge*, sim::TelemetryBus*);

/// Runs `factory` unserved, then served under full scrape load, and
/// requires byte-identical timing-free JSON.
void expect_served_run_identical(GridFactory factory) {
  const auto baseline =
      exp::Runner(1).run("serve-determinism", factory(nullptr, nullptr));
  ASSERT_EQ(baseline.errors(), 0u);

  sim::TelemetryBus bus;
  serve::SimBridge bridge(churn_options());
  bridge.set_telemetry(&bus);
  serve::Server::Options sopts;
  sopts.workers = 3;
  sopts.read_timeout_ms = 500;
  serve::Server server(sopts);
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();

  ScrapeLoad load;
  load.start(server.port());
  const auto served =
      exp::Runner(1).run("serve-determinism", factory(&bridge, &bus));
  load.finish();
  ASSERT_EQ(served.errors(), 0u);

  // The load was real: the scraper got responses while the grid ran.
  EXPECT_GT(server.requests(), 0u);

  EXPECT_EQ(exp::to_json(baseline).dump(), exp::to_json(served).dump());
  server.stop();
}

TEST(ServeDeterminism, CpnTrajectoryIsByteIdenticalUnderScrapeLoad) {
  expect_served_run_identical(&cpn_grid);
}

TEST(ServeDeterminism, MulticoreTrajectoryIsByteIdenticalUnderScrapeLoad) {
  expect_served_run_identical(&multicore_grid);
}

TEST(ServeDeterminism, TrajectorySurvivesAThousandLoadgenClientMix) {
  // The loadgen-driven variant of the acceptance contract: the reduced E1
  // grid under a large mixed client population (scrapers + SSE streams +
  // control POSTs, >= 256 concurrent) stays byte-identical to the quiet
  // run. Generous think time keeps a 1-core host from starving the sim
  // while still cycling every client through the small worker pool.
  const auto baseline =
      exp::Runner(1).run("serve-loadgen", multicore_grid(nullptr, nullptr));
  ASSERT_EQ(baseline.errors(), 0u);

  sim::TelemetryBus bus;
  serve::SimBridge bridge(churn_options());
  bridge.set_telemetry(&bus);
  serve::Server::Options sopts;
  sopts.workers = 8;
  sopts.listen_backlog = 512;
  sopts.read_timeout_ms = 500;
  serve::Server server(sopts);
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();

  loadgen::Options lopts;
  lopts.port = server.port();
  lopts.scrapers = 250;
  lopts.sse = 4;
  lopts.controllers = 2;
  lopts.control_period_s = 0.2;
  lopts.think_s = 0.25;      // mostly-idle clients: concurrency, not rps
  lopts.keep_alive = false;  // every request re-runs accept + queue-wait
  lopts.seed = 7;
  loadgen::Pool pool(lopts);
  ASSERT_GE(pool.clients(), 256u);
  pool.start();
  const auto served =
      exp::Runner(1).run("serve-loadgen", multicore_grid(&bridge, &bus));
  pool.stop();
  ASSERT_EQ(served.errors(), 0u);

  EXPECT_EQ(exp::to_json(baseline).dump(), exp::to_json(served).dump());

  // The load was real, and both sides of the observability seam agree
  // that it happened: the clients completed requests and the server's
  // self-model saw at least as many per scraped route.
  const loadgen::Report report = pool.report();
  std::uint64_t client_total = 0;
  for (const auto& r : report.routes) client_total += r.requests;
  EXPECT_GT(client_total, 0u);
  const serve::ServerStats::Snapshot self = server.stats().snapshot();
  for (const auto route : {serve::RouteClass::Metrics,
                           serve::RouteClass::Status,
                           serve::RouteClass::Healthz}) {
    const auto r = static_cast<std::size_t>(route);
    EXPECT_GE(self.routes[r].count, report.routes[r].requests)
        << serve::route_label(route);
  }
  EXPECT_GT(self.queue_wait.count, 0u);
  server.stop();
}

TEST(ServeDeterminism, ServedCellRepeatsByteIdenticallyAcrossServedRuns) {
  // Two served runs (fresh bridge + server each) also agree with each
  // other: serving is not just "harmless once", it is reproducible.
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    sim::TelemetryBus bus;
    serve::SimBridge bridge(churn_options());
    bridge.set_telemetry(&bus);
    serve::Server server;
    bridge.install(server);
    ASSERT_TRUE(server.start()) << server.error();
    ScrapeLoad load;
    load.start(server.port());
    const auto result =
        exp::Runner(1).run("serve-determinism", cpn_grid(&bridge, &bus));
    load.finish();
    ASSERT_EQ(result.errors(), 0u);
    *out = exp::to_json(result).dump();
    server.stop();
  }
  EXPECT_EQ(first, second);
}

}  // namespace

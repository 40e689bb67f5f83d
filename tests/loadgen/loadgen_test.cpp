// sa::loadgen contracts: the one-shot fetch helper and the three client
// populations driven against a live loopback server.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "loadgen/loadgen.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"

namespace {

using namespace sa;
using namespace sa::loadgen;

serve::Server::Options quick_opts() {
  serve::Server::Options opts;
  opts.workers = 4;
  opts.read_timeout_ms = 500;
  return opts;
}

TEST(LoadgenFetch, ReturnsBodyAndStatus) {
  serve::Server server(quick_opts());
  server.route("GET", "/metrics", [](const serve::HttpRequest&) {
    serve::HttpResponse resp;
    resp.body = "sa_up 1\n";
    return resp;
  });
  ASSERT_TRUE(server.start()) << server.error();

  int status = -1;
  const std::string body =
      fetch("127.0.0.1", server.port(), "/metrics", 2000, &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "sa_up 1\n");

  const std::uint16_t port = server.port();
  server.stop();
  status = -1;
  const std::string none = fetch("127.0.0.1", port, "/metrics", 200, &status);
  EXPECT_EQ(status, 0);
  EXPECT_TRUE(none.empty());
}

TEST(LoadgenPool, ScrapersDriveTheReadEndpoints) {
  serve::Server server(quick_opts());
  for (const std::string path : {"/metrics", "/status", "/healthz"}) {
    server.route("GET", path, [](const serve::HttpRequest&) {
      serve::HttpResponse resp;
      resp.body = "ok\n";
      return resp;
    });
  }
  ASSERT_TRUE(server.start()) << server.error();

  Options opts;
  opts.port = server.port();
  opts.scrapers = 4;
  opts.keep_alive = false;
  opts.seed = 42;
  opts.timeout_ms = 2000;
  Pool pool(opts);
  EXPECT_EQ(pool.clients(), 4u);
  pool.start();
  EXPECT_TRUE(pool.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  pool.stop();
  EXPECT_FALSE(pool.running());
  server.stop();

  const Report report = pool.report();
  EXPECT_GT(report.connects, 0u);
  EXPECT_EQ(report.connect_failures, 0u);
  EXPECT_GT(report.bytes_received, 0u);
  std::uint64_t total = 0, errors = 0;
  for (const RouteReport& r : report.routes) {
    total += r.requests;
    errors += r.errors;
    EXPECT_EQ(r.latency.count, r.requests);  // successes only
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(errors, 0u);
  // The scrapers only touch the three read endpoints.
  EXPECT_EQ(report.routes[static_cast<std::size_t>(
                              serve::RouteClass::Control)].requests,
            0u);
  EXPECT_EQ(report.routes[static_cast<std::size_t>(
                              serve::RouteClass::Events)].requests,
            0u);
}

TEST(LoadgenPool, SseSubscribersMeasureTimeToFirstByte) {
  serve::Server server(quick_opts());
  server.route_stream(
      "/events", [](const serve::HttpRequest&, serve::StreamWriter& w) {
        w.write("data: hello\n\n");
        while (w.open()) {
          if (!w.write(": tick\n\n")) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      });
  ASSERT_TRUE(server.start()) << server.error();

  Options opts;
  opts.port = server.port();
  opts.scrapers = 0;
  opts.sse = 2;
  opts.timeout_ms = 2000;
  Pool pool(opts);
  pool.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  pool.stop();
  server.stop();

  const Report report = pool.report();
  const RouteReport& events =
      report.routes[static_cast<std::size_t>(serve::RouteClass::Events)];
  EXPECT_GE(events.requests, 2u);
  EXPECT_GE(events.latency.count, 2u);  // one TTFB sample per stream
  EXPECT_EQ(events.errors, 0u);
  EXPECT_GT(report.bytes_received, 0u);
}

TEST(LoadgenPool, ControllersPostTheSharedToken) {
  serve::Server server(quick_opts());
  std::atomic<int> with_token{0};
  std::atomic<int> without{0};
  server.route("POST", "/control",
               [&](const serve::HttpRequest& req) {
                 if (req.body.find("token=tok") != std::string::npos) {
                   with_token.fetch_add(1);
                 } else {
                   without.fetch_add(1);
                 }
                 serve::HttpResponse resp;
                 resp.status = 202;
                 resp.body = "{}\n";
                 return resp;
               });
  ASSERT_TRUE(server.start()) << server.error();

  Options opts;
  opts.port = server.port();
  opts.scrapers = 0;
  opts.controllers = 1;
  opts.control_period_s = 0.03;
  opts.control_token = "tok";
  opts.timeout_ms = 2000;
  Pool pool(opts);
  pool.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  pool.stop();
  server.stop();

  EXPECT_GT(with_token.load(), 0);
  EXPECT_EQ(without.load(), 0);
  const Report report = pool.report();
  const RouteReport& control =
      report.routes[static_cast<std::size_t>(serve::RouteClass::Control)];
  // A POST in flight when stop() lands is counted by the server but not
  // the client, so client-side <= server-side; both saw traffic.
  EXPECT_GT(control.requests, 0u);
  EXPECT_LE(control.requests, static_cast<std::uint64_t>(with_token.load()));
  EXPECT_EQ(control.errors, 0u);
}

}  // namespace

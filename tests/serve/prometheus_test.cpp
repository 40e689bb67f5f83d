// Prometheus text-exposition conformance (format version 0.0.4): every
// line render_prometheus() emits must match the exposition grammar, the
// registry-kind mapping (counter/gauge/summary) and the server's latency
// histograms must follow the format's invariants — cumulative le buckets,
// +Inf bucket == count — and a fixed snapshot renders golden bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "serve/prometheus.hpp"
#include "serve/stats.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace sa;
using namespace sa::serve;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

/// One exposition page built from a registry exercising every metric kind.
std::string sample_page() {
  sim::MetricsRegistry reg;
  const auto c = reg.counter("loop.count");
  const auto g = reg.gauge("svc.coverage");
  const auto t = reg.timer("loop.ms");
  reg.add(c, 41.0);
  reg.set(g, 0.875);
  reg.observe(t, 1.5);
  reg.observe(t, 2.5);
  reg.publish(12.5);

  BusSnapshot bus;
  bus.t = 12.5;
  bus.total = 7;
  bus.categories.push_back({"observation", 4});
  bus.categories.push_back({"decision", 3});

  ServeStats stats;
  stats.connections = 3;
  stats.requests = 9;

  const auto live = reg.live();
  return render_prometheus(live.get(), &bus, &stats);
}

// Exposition grammar per line: comments/metadata, samples, or blank.
// metric_name [a-zA-Z_:][a-zA-Z0-9_:]*, optional {labels}, a value, no
// timestamp (we never emit one).
const std::regex kHelpRe(R"(# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*)");
const std::regex kTypeRe(
    R"(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary|histogram|untyped))");
const std::regex kSampleRe(
    R"([a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9].*|[+-]Inf|NaN))");

void expect_exposition_grammar(const std::string& page) {
  ASSERT_FALSE(page.empty());
  EXPECT_EQ(page.back(), '\n');
  for (const std::string& line : lines_of(page)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, kHelpRe)) << line;
    } else if (line.rfind("# TYPE", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, kTypeRe)) << line;
    } else {
      ASSERT_NE(line.front(), '#') << "unknown comment form: " << line;
      EXPECT_TRUE(std::regex_match(line, kSampleRe)) << line;
    }
  }
}

TEST(PrometheusFormat, EveryLineMatchesTheExpositionGrammar) {
  expect_exposition_grammar(sample_page());
}

TEST(PrometheusFormat, TypeLinePrecedesItsSamples) {
  // The format requires metadata before any sample of that family.
  const auto lines = lines_of(sample_page());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty() || line.front() == '#') continue;
    const std::string family = line.substr(0, line.find_first_of("{ "));
    bool typed = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (lines[j].rfind("# TYPE ", 0) != 0) continue;
      const std::string typed_name =
          lines[j].substr(7, lines[j].find(' ', 7) - 7);
      // A sample belongs to a family if its name is the family name or an
      // allowed suffix of it (_sum/_count/_bucket/_min/_max/_stddev).
      if (family == typed_name ||
          family.rfind(typed_name + "_", 0) == 0) {
        typed = true;
        break;
      }
    }
    EXPECT_TRUE(typed) << "sample with no preceding TYPE: " << line;
  }
}

TEST(PrometheusFormat, MapsRegistryKinds) {
  const std::string page = sample_page();
  EXPECT_NE(page.find("# TYPE sa_loop_count counter"), std::string::npos);
  EXPECT_NE(page.find("sa_loop_count 41"), std::string::npos);
  EXPECT_NE(page.find("# TYPE sa_svc_coverage gauge"), std::string::npos);
  EXPECT_NE(page.find("sa_svc_coverage 0.875"), std::string::npos);
  EXPECT_NE(page.find("# TYPE sa_loop_ms summary"), std::string::npos);
  EXPECT_NE(page.find("sa_loop_ms_sum 4"), std::string::npos);
  EXPECT_NE(page.find("sa_loop_ms_count 2"), std::string::npos);
  EXPECT_NE(page.find("sa_sim_time_seconds 12.5"), std::string::npos);
}

TEST(PrometheusFormat, BusCategoriesBecomeLabelledCounters) {
  const std::string page = sample_page();
  EXPECT_NE(page.find("sa_bus_events_total{category=\"observation\"} 4"),
            std::string::npos);
  EXPECT_NE(page.find("sa_bus_events_total{category=\"decision\"} 3"),
            std::string::npos);
  EXPECT_NE(page.find("sa_bus_events_all_total 7"), std::string::npos);
}

TEST(PrometheusFormat, NullSectionsAreOmitted) {
  const std::string page = render_prometheus(nullptr, nullptr, nullptr);
  EXPECT_EQ(page.find("sa_sim_time_seconds"), std::string::npos);
  EXPECT_EQ(page.find("sa_bus_events"), std::string::npos);
  EXPECT_EQ(page.find("sa_serve_"), std::string::npos);

  ServeStats stats;
  const std::string only_serve = render_prometheus(nullptr, nullptr, &stats);
  EXPECT_NE(only_serve.find("sa_serve_requests_total"), std::string::npos);
}

TEST(PrometheusFormat, ShardSnapshotRendersPerShardCounters) {
  ShardSnapshot shard;
  shard.t = 12.0;
  shard.events = {100, 250, 7};  // two shards + the coordinator
  shard.lag_seconds = 0.25;
  const std::string page =
      render_prometheus(nullptr, nullptr, nullptr, nullptr, &shard);
  expect_exposition_grammar(page);
  EXPECT_NE(page.find("sa_shard_events_total{shard=\"0\"} 100"),
            std::string::npos);
  EXPECT_NE(page.find("sa_shard_events_total{shard=\"1\"} 250"),
            std::string::npos);
  EXPECT_NE(page.find("sa_shard_events_total{shard=\"coordinator\"} 7"),
            std::string::npos);
  EXPECT_NE(page.find("sa_shard_lag_seconds 0.25"), std::string::npos);
}

TEST(PrometheusFormat, EmptyShardSnapshotIsOmitted) {
  const ShardSnapshot shard;  // no events published
  const std::string page =
      render_prometheus(nullptr, nullptr, nullptr, nullptr, &shard);
  EXPECT_EQ(page.find("sa_shard"), std::string::npos);
}

TEST(PrometheusFormat, SanitizesMetricNames) {
  EXPECT_EQ(sanitize_metric_name("loop.count"), "loop_count");
  EXPECT_EQ(sanitize_metric_name("svc coverage%"), "svc_coverage_");
  EXPECT_EQ(sanitize_metric_name("9lives"), "_9lives");
  EXPECT_EQ(sanitize_metric_name("a:b_c9"), "a:b_c9");
}

TEST(PrometheusFormat, EscapesLabelValues) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("a\nb"), "a\\nb");
}

/// Server self-stats exercised across workers, routes and reject kinds.
ServerStats::Snapshot exercised_server_stats() {
  ServerStats stats(3, /*slow_threshold_s=*/1.0);
  stats.record_request(0, RouteClass::Metrics, 1.2e-3, 200, 512);
  stats.record_request(1, RouteClass::Metrics, 3.4e-3, 200, 512);
  stats.record_request(2, RouteClass::Metrics, 45.0, 200, 512);  // overflow
  stats.record_request(0, RouteClass::Status, 8e-4, 200, 256);
  stats.record_request(1, RouteClass::Events, 2e-5, 200, 0);
  stats.record_request(2, RouteClass::Control, 6e-4, 202, 32);
  stats.record_request(0, RouteClass::Healthz, 9e-6, 200, 3);
  stats.record_request(1, RouteClass::Other, 1e-4, 404, 64);
  stats.record_queue_wait(0, 5e-6);
  stats.add_request_bytes(0, 4096);
  stats.on_keepalive_reuse(1);
  stats.on_write_timeout(2);
  stats.on_parse_reject(0, 400);
  stats.on_parse_reject(1, 418);  // catch-all slot
  stats.connection_opened();
  return stats.snapshot();
}

/// A page carrying only the server's self-stats section.
std::string server_stats_page() {
  const ServerStats::Snapshot snap = exercised_server_stats();
  return render_prometheus(nullptr, nullptr, nullptr, &snap);
}

TEST(PrometheusFormat, ServerStatsPageMatchesTheExpositionGrammar) {
  const std::string page = server_stats_page();
  expect_exposition_grammar(page);
  EXPECT_NE(page.find("# TYPE sa_serve_request_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE sa_serve_queue_wait_seconds histogram"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE sa_serve_connections_active gauge"),
            std::string::npos);
  EXPECT_NE(page.find("sa_serve_keepalive_reuses_total 1"),
            std::string::npos);
  EXPECT_NE(page.find("sa_serve_write_timeouts_total 1"), std::string::npos);
  EXPECT_NE(page.find("sa_serve_request_bytes_total 4096"),
            std::string::npos);
  EXPECT_NE(page.find("sa_serve_rejected_requests_total{status=\"400\"} 1"),
            std::string::npos);
  EXPECT_NE(page.find("sa_serve_rejected_requests_total{status=\"other\"} 1"),
            std::string::npos);
}

TEST(PrometheusFormat, RouteHistogramsAreCumulativeWithInfEqualCount) {
  const auto lines = lines_of(server_stats_page());
  // Per route: cumulative finite buckets, +Inf == _count, even when some
  // observations overflowed the last finite bound (the /metrics 45 s one).
  for (const std::string route :
       {"/metrics", "/status", "/events", "/control", "/healthz", "other"}) {
    const std::string prefix =
        "sa_serve_request_duration_seconds_bucket{route=\"" + route + "\",";
    double prev = 0.0, inf = -1.0, count = -1.0;
    std::size_t finite_buckets = 0;
    for (const std::string& line : lines) {
      if (line.rfind(prefix, 0) == 0) {
        const double v = std::stod(line.substr(line.rfind(' ') + 1));
        if (line.find("le=\"+Inf\"") != std::string::npos) {
          inf = v;
        } else {
          EXPECT_GE(v, prev) << route << ": not cumulative: " << line;
          prev = v;
          ++finite_buckets;
        }
      } else if (line.rfind("sa_serve_request_duration_seconds_count{route=\"" +
                                route + "\"} ",
                            0) == 0) {
        count = std::stod(line.substr(line.rfind(' ') + 1));
      }
    }
    EXPECT_EQ(finite_buckets,
              static_cast<std::size_t>(LatencyHistogram::kFiniteBuckets))
        << route;
    EXPECT_GE(count, 0.0) << route << ": missing _count";
    EXPECT_EQ(inf, count) << route;
  }
}

TEST(PrometheusFormat, EmptyServerStatsStillRenderEveryRouteSeries) {
  // A scrape before any traffic must already show all six route series
  // (count 0) so dashboards never see families appear mid-flight.
  const ServerStats::Snapshot empty = ServerStats(2).snapshot();
  const std::string page = render_prometheus(nullptr, nullptr, nullptr,
                                             &empty);
  expect_exposition_grammar(page);
  for (const std::string route :
       {"/metrics", "/status", "/events", "/control", "/healthz", "other"}) {
    EXPECT_NE(
        page.find("sa_serve_request_duration_seconds_bucket{route=\"" +
                  route + "\",le=\"+Inf\"} 0"),
        std::string::npos)
        << route;
    EXPECT_NE(page.find("sa_serve_request_duration_seconds_count{route=\"" +
                        route + "\"} 0"),
              std::string::npos)
        << route;
  }
  EXPECT_NE(page.find("sa_serve_queue_wait_seconds_count 0"),
            std::string::npos);
}

TEST(PrometheusFormat, SseDropCounterIsSplitByReason) {
  ServeStats stats;
  stats.sse_dropped_contended = 2;
  stats.sse_dropped_overflow = 5;
  const std::string page = render_prometheus(nullptr, nullptr, &stats);
  expect_exposition_grammar(page);
  EXPECT_NE(page.find("sa_serve_sse_dropped_total{reason=\"contended\"} 2"),
            std::string::npos);
  EXPECT_NE(page.find("sa_serve_sse_dropped_total{reason=\"overflow\"} 5"),
            std::string::npos);
}

TEST(PrometheusFormat, FormatsSpecialValues) {
  EXPECT_EQ(format_value(std::numeric_limits<double>::infinity()), "+Inf");
  EXPECT_EQ(format_value(-std::numeric_limits<double>::infinity()), "-Inf");
  EXPECT_EQ(format_value(std::nan("")), "NaN");
  EXPECT_EQ(format_value(42.0), "42");
  EXPECT_EQ(format_value(0.875), "0.875");
}

TEST(PrometheusFormat, FixedSnapshotRendersTheGoldenPage) {
  // Every section at once, from fixed inputs: the exact bytes are pinned
  // in golden/metrics.prom, so any change to the exposition shows up here
  // as a diff. On a mismatch the rendered page is written to the test
  // temp dir for comparison.
  sim::MetricsRegistry reg;
  reg.add(reg.counter("loop.count"), 41.0);
  reg.set(reg.gauge("svc.coverage"), 0.875);
  const auto t = reg.timer("loop.ms");
  reg.observe(t, 1.5);
  reg.observe(t, 2.25);
  reg.publish(12.5);
  const auto live = reg.live();

  BusSnapshot bus;
  bus.t = 12.5;
  bus.total = 9;
  bus.categories = {{"decision", 3}, {"observation", 4}, {"fault \"x\"", 2}};

  ServeStats serve;
  serve.connections = 3;
  serve.requests = 9;
  serve.parse_errors = 1;
  serve.sse_subscribers = 2;
  serve.sse_dropped_contended = 4;
  serve.sse_dropped_overflow = 5;

  const ServerStats::Snapshot server = exercised_server_stats();

  ShardSnapshot shard;
  shard.t = 12.5;
  shard.events = {100, 250, 7};
  shard.lag_seconds = 0.125;

  const std::string page =
      render_prometheus(live.get(), &bus, &serve, &server, &shard);
  std::ifstream in(std::string(SA_GOLDEN_DIR) + "/metrics.prom",
                   std::ios::binary);
  ASSERT_TRUE(in) << "missing " << SA_GOLDEN_DIR << "/metrics.prom";
  std::ostringstream golden;
  golden << in.rdbuf();
  if (page != golden.str()) {
    std::ofstream(::testing::TempDir() + "metrics.prom.actual",
                  std::ios::binary)
        << page;
    const auto got = lines_of(page);
    const auto want = lines_of(golden.str());
    std::size_t i = 0;
    while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
    FAIL() << "page differs from golden at line " << i + 1 << ":\n  got:  "
           << (i < got.size() ? got[i] : "<eof>") << "\n  want: "
           << (i < want.size() ? want[i] : "<eof>");
  }
}

}  // namespace

// Prometheus text exposition (version 0.0.4) for the live control plane.
//
// The renderer is a pure function from published snapshots to text —
// deliberately separated from sockets and from the registry itself, so the
// /metrics handler stays a one-liner and format conformance is testable
// without a listener (tests/serve/prometheus_test.cpp checks every line
// against the exposition grammar).
//
// Mapping from sim::MetricsRegistry kinds:
//   Counter   -> counter  `sa_<name>`
//   Gauge     -> gauge    `sa_<name>`
//   Timer     -> summary  `sa_<name>_sum` / `sa_<name>_count` (+ min/max
//                gauges, which Prometheus cannot derive post hoc)
// Telemetry-bus categories surface as `sa_bus_events_total{category="..."}`
// and the server's own counters as `sa_serve_*`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/stats.hpp"
#include "sim/metrics.hpp"

namespace sa::serve {

// The snapshot types below are plain values the sim thread fills at a
// publish boundary; nothing in them is read from the live objects again.
// Their names are views: the bridge points them into the name table of
// the frame that owns the snapshot, so they live exactly as long as it.

/// One registry metric as a publish saw it: identity, scalar and timer
/// observation stats (count == 0 for counters and gauges).
struct LiveMetric {
  std::string_view name;
  sim::MetricsRegistry::Kind kind = sim::MetricsRegistry::Kind::Counter;
  double value = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0, min = 0.0, max = 0.0;
};

/// The whole registry at one publish.
struct LiveSnapshot {
  double t = 0.0;                ///< sim time of the publish
  std::uint64_t generation = 0;  ///< publish count, monotone from 1
  std::vector<LiveMetric> metrics;
};

/// Reads every metric of `reg` (sim thread). `names[m]` names metric m and
/// must outlive the snapshot.
[[nodiscard]] LiveSnapshot capture_metrics(
    const sim::MetricsRegistry& reg, const std::vector<std::string>& names,
    double t, std::uint64_t generation);

/// Per-category event counts copied off the TelemetryBus by the sim thread
/// at a publish boundary (the bus's own counters are not safe to read
/// concurrently).
struct BusSnapshot {
  double t = 0.0;
  std::uint64_t total = 0;
  struct Category {
    std::string_view name;
    std::uint64_t count = 0;
  };
  std::vector<Category> categories;
};

/// Per-shard executed-event counts published by the coordinator of a
/// sharded run (sa::shard) at a publish boundary — the shard engines are
/// barrier-paused there, so the copy is race-free. The last entry is the
/// coordinator engine itself; `lag_seconds` is the coordinator's
/// cumulative barrier-wait wall-clock time.
struct ShardSnapshot {
  double t = 0.0;
  std::vector<std::uint64_t> events;
  double lag_seconds = 0.0;
};

/// The server's own counters, sampled at scrape time (atomics). SSE drops
/// are split by cause: "contended" means the sim thread found a subscriber
/// lock held at event time (the never-block rule), "overflow" means a
/// subscriber queue was full or its consumer held the lock.
struct ServeStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t sse_subscribers = 0;
  std::uint64_t sse_dropped_contended = 0;
  std::uint64_t sse_dropped_overflow = 0;
};

/// Rewrites a registry metric name into the exposition grammar
/// [a-zA-Z_:][a-zA-Z0-9_:]* — every other character becomes '_', and a
/// leading digit gets a '_' prefix.
[[nodiscard]] std::string sanitize_metric_name(std::string_view name);

/// Escapes a label value (backslash, double quote, newline).
[[nodiscard]] std::string escape_label_value(std::string_view value);

/// Formats a sample value: shortest round-trip decimal, with +Inf / -Inf /
/// NaN spelled the way the exposition format wants them.
[[nodiscard]] std::string format_value(double v);

/// Renders the whole exposition page. Any argument may be null (that
/// family is simply omitted) — a scrape before the first publish returns
/// just the serve self-stats. `server` adds the server's self-model: the
/// per-route `sa_serve_request_duration_seconds{route=…}` histograms
/// (cumulative `le`, +Inf == count, every route class rendered even when
/// empty), the accept→worker `sa_serve_queue_wait_seconds` histogram, and
/// the lifecycle counters/gauges. `shard` adds a sharded run's
/// `sa_shard_events_total{shard=…}` counters (the final sample labelled
/// `shard="coordinator"`) and the `sa_shard_lag_seconds` gauge.
[[nodiscard]] std::string render_prometheus(
    const LiveSnapshot* live, const BusSnapshot* bus,
    const ServeStats* serve, const ServerStats::Snapshot* server = nullptr,
    const ShardSnapshot* shard = nullptr);

}  // namespace sa::serve

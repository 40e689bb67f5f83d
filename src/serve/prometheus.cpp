#include "serve/prometheus.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace sa::serve {

namespace {

using Kind = sim::MetricsRegistry::Kind;
using LiveMetric = sim::MetricsRegistry::LiveMetric;

void append_sample(std::string& out, std::string_view name,
                   std::string_view labels, double value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += format_value(value);
  out += '\n';
}

void append_meta(std::string& out, std::string_view name,
                 std::string_view type, std::string_view help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void render_metric(std::string& out, const LiveMetric& m) {
  const std::string name = "sa_" + sanitize_metric_name(m.name);
  switch (m.kind) {
    case Kind::Counter:
      append_meta(out, name, "counter", "registry counter " + m.name);
      append_sample(out, name, {}, m.value);
      break;
    case Kind::Gauge:
      append_meta(out, name, "gauge", "registry gauge " + m.name);
      append_sample(out, name, {}, m.value);
      break;
    case Kind::Timer: {
      append_meta(out, name, "summary", "registry timer " + m.name);
      append_sample(out, name + "_sum", {}, m.sum);
      append_sample(out, name + "_count", {},
                    static_cast<double>(m.count));
      // Prometheus cannot recover extrema from a summary; expose them.
      append_meta(out, name + "_min", "gauge", "minimum observed");
      append_sample(out, name + "_min", {}, m.count ? m.min : 0.0);
      append_meta(out, name + "_max", "gauge", "maximum observed");
      append_sample(out, name + "_max", {}, m.count ? m.max : 0.0);
      break;
    }
  }
}

/// One labelled series of a fixed-boundary latency histogram: cumulative
/// `le` buckets over the exact-decimal boundaries, +Inf == count, then the
/// labelled _sum/_count pair. `label` is e.g. `route="/metrics"` or empty.
void append_latency_series(std::string& out, const std::string& name,
                           const std::string& label,
                           const LatencyHistogram::Snapshot& h) {
  std::uint64_t cumulative = 0;
  for (int b = 0; b < LatencyHistogram::kFiniteBuckets; ++b) {
    cumulative += h.buckets[static_cast<std::size_t>(b)];
    std::string labels = label;
    if (!labels.empty()) labels += ',';
    labels += "le=\"" + LatencyHistogram::le_label(b) + "\"";
    append_sample(out, name + "_bucket", labels,
                  static_cast<double>(cumulative));
  }
  std::string inf_labels = label;
  if (!inf_labels.empty()) inf_labels += ',';
  inf_labels += "le=\"+Inf\"";
  append_sample(out, name + "_bucket", inf_labels,
                static_cast<double>(h.count));
  append_sample(out, name + "_sum", label, h.sum_s());
  append_sample(out, name + "_count", label, static_cast<double>(h.count));
}

void render_server_stats(std::string& out,
                         const ServerStats::Snapshot& server) {
  append_meta(out, "sa_serve_request_duration_seconds", "histogram",
              "request latency by route class (log-linear buckets)");
  for (std::size_t r = 0; r < kRouteClasses; ++r) {
    const std::string label =
        std::string("route=\"") +
        escape_label_value(route_label(static_cast<RouteClass>(r))) + "\"";
    append_latency_series(out, "sa_serve_request_duration_seconds", label,
                          server.routes[r]);
  }
  append_meta(out, "sa_serve_queue_wait_seconds", "histogram",
              "accepted-connection wait until a worker picked it up");
  append_latency_series(out, "sa_serve_queue_wait_seconds", {},
                        server.queue_wait);
  append_meta(out, "sa_serve_connections_active", "gauge",
              "connections accepted and not yet closed");
  append_sample(out, "sa_serve_connections_active", {},
                static_cast<double>(server.active));
  append_meta(out, "sa_serve_keepalive_reuses_total", "counter",
              "requests served on an already-used connection");
  append_sample(out, "sa_serve_keepalive_reuses_total", {},
                static_cast<double>(server.keepalive_reuses));
  append_meta(out, "sa_serve_write_timeouts_total", "counter",
              "sends that hit SO_SNDTIMEO (client stopped reading)");
  append_sample(out, "sa_serve_write_timeouts_total", {},
                static_cast<double>(server.write_timeouts));
  append_meta(out, "sa_serve_request_bytes_total", "counter",
              "bytes received from clients");
  append_sample(out, "sa_serve_request_bytes_total", {},
                static_cast<double>(server.request_bytes));
  append_meta(out, "sa_serve_response_bytes_total", "counter",
              "bytes sent to clients");
  append_sample(out, "sa_serve_response_bytes_total", {},
                static_cast<double>(server.response_bytes));
  append_meta(out, "sa_serve_rejected_requests_total", "counter",
              "parser rejections by response status");
  for (std::size_t i = 0; i < kRejectKinds; ++i) {
    const std::string status = i < kRejectStatuses.size()
                                   ? std::to_string(kRejectStatuses[i])
                                   : std::string("other");
    append_sample(out, "sa_serve_rejected_requests_total",
                  "status=\"" + status + "\"",
                  static_cast<double>(server.rejects[i]));
  }
}

}  // namespace

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])) != 0) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string format_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // %.17g round-trips but is noisy for the common integral case.
  double integral = 0.0;
  if (std::modf(v, &integral) == 0.0 && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  }
  return buf;
}

std::string render_prometheus(
    const sim::MetricsRegistry::LiveSnapshot* live, const BusSnapshot* bus,
    const ServeStats* serve, const ServerStats::Snapshot* server,
    const ShardSnapshot* shard) {
  std::string out;
  out.reserve(4096);
  if (live != nullptr) {
    append_meta(out, "sa_sim_time_seconds", "gauge",
                "sim time of the last published snapshot");
    append_sample(out, "sa_sim_time_seconds", {}, live->t);
    append_meta(out, "sa_metrics_generation", "counter",
                "number of registry publishes so far");
    append_sample(out, "sa_metrics_generation", {},
                  static_cast<double>(live->generation));
    for (const LiveMetric& m : live->metrics) render_metric(out, m);
  }
  if (bus != nullptr) {
    append_meta(out, "sa_bus_events_total", "counter",
                "telemetry-bus events by category");
    for (const BusSnapshot::Category& c : bus->categories) {
      append_sample(out, "sa_bus_events_total",
                    "category=\"" + escape_label_value(c.name) + "\"",
                    static_cast<double>(c.count));
    }
    append_meta(out, "sa_bus_events_all_total", "counter",
                "telemetry-bus events across all categories");
    append_sample(out, "sa_bus_events_all_total", {},
                  static_cast<double>(bus->total));
  }
  if (serve != nullptr) {
    append_meta(out, "sa_serve_connections_total", "counter",
                "TCP connections accepted");
    append_sample(out, "sa_serve_connections_total", {},
                  static_cast<double>(serve->connections));
    append_meta(out, "sa_serve_requests_total", "counter",
                "HTTP requests dispatched");
    append_sample(out, "sa_serve_requests_total", {},
                  static_cast<double>(serve->requests));
    append_meta(out, "sa_serve_parse_errors_total", "counter",
                "HTTP requests rejected by the parser");
    append_sample(out, "sa_serve_parse_errors_total", {},
                  static_cast<double>(serve->parse_errors));
    append_meta(out, "sa_serve_sse_subscribers", "gauge",
                "live SSE subscriber queues");
    append_sample(out, "sa_serve_sse_subscribers", {},
                  static_cast<double>(serve->sse_subscribers));
    append_meta(out, "sa_serve_sse_dropped_total", "counter",
                "SSE events dropped (bounded queues, never block the sim)");
    append_sample(out, "sa_serve_sse_dropped_total",
                  "reason=\"contended\"",
                  static_cast<double>(serve->sse_dropped_contended));
    append_sample(out, "sa_serve_sse_dropped_total", "reason=\"overflow\"",
                  static_cast<double>(serve->sse_dropped_overflow));
  }
  if (shard != nullptr && !shard->events.empty()) {
    append_meta(out, "sa_shard_events_total", "counter",
                "events executed per engine shard (sa::shard; the final "
                "sample is the coordinator engine)");
    for (std::size_t i = 0; i < shard->events.size(); ++i) {
      const bool coordinator = i + 1 == shard->events.size();
      append_sample(out, "sa_shard_events_total",
                    coordinator ? std::string("shard=\"coordinator\"")
                                : "shard=\"" + std::to_string(i) + "\"",
                    static_cast<double>(shard->events[i]));
    }
    append_meta(out, "sa_shard_lag_seconds", "gauge",
                "cumulative coordinator barrier-wait wall-clock seconds");
    append_sample(out, "sa_shard_lag_seconds", {}, shard->lag_seconds);
  }
  if (server != nullptr) render_server_stats(out, *server);
  return out;
}

}  // namespace sa::serve

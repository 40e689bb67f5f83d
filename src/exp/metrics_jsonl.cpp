#include "exp/metrics_jsonl.hpp"

#include <ostream>

#include "exp/json.hpp"

namespace sa::exp {

namespace {

const char* kind_name(sim::MetricsRegistry::Kind k) {
  switch (k) {
    case sim::MetricsRegistry::Kind::Counter:
      return "counter";
    case sim::MetricsRegistry::Kind::Gauge:
      return "gauge";
    case sim::MetricsRegistry::Kind::Timer:
      return "timer";
  }
  return "unknown";
}

}  // namespace

void write_metrics_jsonl(std::ostream& os,
                         const sim::MetricsRegistry& registry) {
  using MetricId = sim::MetricsRegistry::MetricId;
  Json header = Json::object();
  header["schema"] = 1;
  header["kind"] = "metrics";
  Json& names = header["names"] = Json::array();
  Json& kinds = header["kinds"] = Json::array();
  for (MetricId m = 0; m < registry.size(); ++m) {
    names.push_back(registry.name(m));
    kinds.push_back(kind_name(registry.kind(m)));
  }
  header.dump(os, /*indent=*/-1);
  os << "\n";

  for (const sim::MetricsRegistry::Snapshot& snap : registry.snapshots()) {
    Json row = Json::object();
    row["t"] = snap.t;
    Json& values = row["v"] = Json::array();
    for (const double v : snap.values) values.push_back(v);
    row.dump(os, /*indent=*/-1);
    os << "\n";
  }

  Json footer = Json::object();
  Json& summary = footer["summary"] = Json::object();
  for (MetricId m = 0; m < registry.size(); ++m) {
    Json& entry = summary[registry.name(m)] = Json::object();
    entry["kind"] = kind_name(registry.kind(m));
    switch (registry.kind(m)) {
      case sim::MetricsRegistry::Kind::Counter:
      case sim::MetricsRegistry::Kind::Gauge:
        entry["value"] = registry.value(m);
        break;
      case sim::MetricsRegistry::Kind::Timer: {
        const sim::RunningStats& s = registry.stats(m);
        entry["count"] = s.count();
        entry["mean"] = s.mean();
        entry["stddev"] = s.stddev();
        entry["min"] = s.count() ? s.min() : 0.0;
        entry["max"] = s.count() ? s.max() : 0.0;
        break;
      }
    }
  }
  footer.dump(os, /*indent=*/-1);
  os << "\n";
}

}  // namespace sa::exp

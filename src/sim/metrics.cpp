#include "sim/metrics.hpp"

#include <stdexcept>

namespace sa::sim {

MetricsRegistry::MetricId MetricsRegistry::register_metric(
    std::string_view name, Kind kind) {
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name == name) {
      if (metrics_[i].kind != kind) {
        throw std::logic_error("MetricsRegistry: '" + std::string(name) +
                               "' re-registered with a different kind");
      }
      return static_cast<MetricId>(i);
    }
  }
  Metric m;
  m.name = std::string(name);
  m.kind = kind;
  metrics_.push_back(std::move(m));
  return static_cast<MetricId>(metrics_.size() - 1);
}

MetricsRegistry::MetricId MetricsRegistry::counter(std::string_view name) {
  return register_metric(name, Kind::Counter);
}

MetricsRegistry::MetricId MetricsRegistry::gauge(std::string_view name) {
  return register_metric(name, Kind::Gauge);
}

MetricsRegistry::MetricId MetricsRegistry::timer(std::string_view name) {
  return register_metric(name, Kind::Timer);
}

void MetricsRegistry::snapshot(double t) {
  Snapshot s;
  s.t = t;
  s.values.reserve(metrics_.size());
  for (const Metric& m : metrics_) {
    switch (m.kind) {
      case Kind::Counter:
      case Kind::Gauge:
        s.values.push_back(m.value);
        break;
      case Kind::Timer:
        s.values.push_back(m.stats.count() > 0 ? m.stats.mean() : 0.0);
        break;
    }
  }
  snapshots_.push_back(std::move(s));
}

}  // namespace sa::sim

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

std::optional<MetricsRegistry::MetricId> MetricsRegistry::find(
    std::string_view name) const {
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name == name) return static_cast<MetricId>(i);
  }
  return std::nullopt;
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
  publish(t);
}

void MetricsRegistry::publish(double t) {
  auto snap = std::make_shared<LiveSnapshot>();
  snap->t = t;
  snap->generation = ++generation_;
  snap->metrics.reserve(metrics_.size());
  for (const Metric& m : metrics_) {
    LiveMetric lm;
    lm.name = m.name;
    lm.kind = m.kind;
    lm.value = m.value;
    if (m.kind == Kind::Timer) {
      lm.count = m.stats.count();
      if (lm.count > 0) {
        lm.sum = m.stats.sum();
        lm.mean = m.stats.mean();
        lm.min = m.stats.min();
        lm.max = m.stats.max();
        lm.stddev = m.stats.stddev();
      }
    }
    snap->metrics.push_back(std::move(lm));
  }
  live_.publish(std::move(snap));
}

}  // namespace sa::sim

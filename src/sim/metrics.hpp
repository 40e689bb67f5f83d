// Self-profiling metrics registry: counters, gauges and timers behind O(1)
// pre-registered handles, with per-epoch snapshots.
//
// This is where *wall-clock* self-measurement lives (ODA-loop latency,
// handler cost per subject) — deliberately separated from the Tracer,
// whose record is pure sim-time and must stay bitwise reproducible.
// Register metrics once at wiring time (`counter`/`gauge`/`timer`,
// idempotent by name); the hot path (`add`/`set`/`observe`)
// is an index into a flat vector and performs no heap allocation.
// `snapshot(t)` appends one row of all current values, giving a
// time-series exportable as JSONL (exp::write_metrics_jsonl).
//
// The registry is single-threaded: registration, the hot path and
// snapshot() all belong to the thread that runs the simulation. A live
// scraper never reads it; serve::SimBridge copies the values into its own
// published frame at each publish.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hpp"

namespace sa::sim {

class MetricsRegistry {
 public:
  using MetricId = std::uint32_t;

  enum class Kind : std::uint8_t { Counter, Gauge, Timer };

  /// Registration — linear scan by name, idempotent: re-registering an
  /// existing name returns its id. Throws std::logic_error if the name is
  /// already registered with a different kind (programmer error).
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);
  /// Timers fold observed durations (milliseconds by convention) into
  /// RunningStats.
  MetricId timer(std::string_view name);

  /// Hot path — O(1), no allocation.
  void add(MetricId m, double delta = 1.0) { metrics_[m].value += delta; }
  void set(MetricId m, double value) { metrics_[m].value = value; }
  void observe(MetricId m, double value) {
    Metric& metric = metrics_[m];
    metric.value += 1.0;  // observation count
    metric.stats.add(value);
  }

  /// Counter: running total. Gauge: last set value. Timer: number of
  /// observations.
  [[nodiscard]] double value(MetricId m) const { return metrics_[m].value; }
  [[nodiscard]] const RunningStats& stats(MetricId m) const {
    return metrics_[m].stats;
  }
  [[nodiscard]] const std::string& name(MetricId m) const {
    return metrics_[m].name;
  }
  [[nodiscard]] Kind kind(MetricId m) const { return metrics_[m].kind; }
  [[nodiscard]] std::size_t size() const noexcept { return metrics_.size(); }

  /// One row of the exported time-series: every metric's scalar at time t
  /// (counters/gauges: value; timers: mean of observations so far,
  /// cumulative).
  struct Snapshot {
    double t = 0.0;
    std::vector<double> values;
  };
  void snapshot(double t);
  [[nodiscard]] const std::vector<Snapshot>& snapshots() const noexcept {
    return snapshots_;
  }
  void clear_snapshots() { snapshots_.clear(); }

 private:
  struct Metric {
    std::string name;
    Kind kind = Kind::Counter;
    double value = 0.0;
    RunningStats stats;
  };
  MetricId register_metric(std::string_view name, Kind kind);

  std::vector<Metric> metrics_;
  std::vector<Snapshot> snapshots_;
};

}  // namespace sa::sim

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
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/snapshot.hpp"
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
  [[nodiscard]] std::optional<MetricId> find(std::string_view name) const;

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

  // -- Concurrent read path (the sa::serve scrape seam) ---------------------
  //
  // The registry itself is single-threaded: add/set/observe and snapshot()
  // belong to the sim thread. To let an HTTP scraper read metrics while a
  // run is live, the sim thread *publishes* an immutable deep copy of every
  // metric's current state; server threads read whichever copy is current
  // through a lock-free atomic pointer (SnapshotCell). snapshot(t) also
  // publishes, so any experiment that already snapshots per epoch is
  // scrapeable with no extra wiring.

  /// Everything a scraper needs from one metric, deep-copied at publish
  /// time: identity, scalar and observation stats.
  struct LiveMetric {
    std::string name;
    Kind kind = Kind::Counter;
    double value = 0.0;
    // Timer observation stats (count == 0 for counters/gauges).
    std::uint64_t count = 0;
    double sum = 0.0, mean = 0.0, min = 0.0, max = 0.0, stddev = 0.0;
  };
  /// One published generation of the whole registry.
  struct LiveSnapshot {
    double t = 0.0;             ///< sim time passed to publish()
    std::uint64_t generation = 0;  ///< publish() count, monotone from 1
    std::vector<LiveMetric> metrics;
  };

  /// Publishes the current state for concurrent readers (sim thread only).
  /// Reads nothing racy, draws no randomness: publishing cannot perturb a
  /// trajectory.
  void publish(double t);
  /// The most recently published snapshot, or nullptr before the first
  /// publish()/snapshot(). Safe from any thread; the returned snapshot
  /// stays valid for as long as the caller holds the pointer.
  [[nodiscard]] std::shared_ptr<const LiveSnapshot> live() const noexcept {
    return live_.read();
  }

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
  SnapshotCell<LiveSnapshot> live_;
  std::uint64_t generation_ = 0;
};

}  // namespace sa::sim

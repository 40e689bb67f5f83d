// Heterogeneous multicore platform simulator.
//
// Substrate for the paper's multi-/many-core motivation (Section II,
// Platzner [8]; Agne et al. [47]): a big.LITTLE-style chip whose run-time
// manager must trade throughput and latency against power under a workload
// whose characteristics change during operation. The platform is
// time-stepped (fixed tick): tasks arrive stochastically, a mapping policy
// places them on per-core queues, cores drain work at ipc × frequency, and
// power integrates static leakage plus a cubic dynamic term — the standard
// first-order DVFS model.
//
// The self-aware run-time manager (experiments E1/E5) treats
// (frequency level × mapping) as its action space, sensing the harvested
// epoch statistics.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"

namespace sa::multicore {

/// Placement policy applied to each arriving task.
enum class Mapping {
  Balanced,    ///< least expected finish time across all cores
  PackBig,     ///< prefer big cores (performance first)
  PackLittle,  ///< prefer LITTLE cores (efficiency first)
};

[[nodiscard]] constexpr const char* mapping_name(Mapping m) noexcept {
  switch (m) {
    case Mapping::Balanced: return "balanced";
    case Mapping::PackBig: return "pack-big";
    case Mapping::PackLittle: return "pack-little";
  }
  return "?";
}

/// Static description of one core.
struct CoreSpec {
  std::string name;
  bool big = false;      ///< core class (big vs LITTLE)
  double ipc = 1.0;      ///< giga-ops per second at 1 GHz
  double static_w = 0.3; ///< leakage at 1 GHz, W (scales with f^2)
  double dyn_coeff = 1.0;///< dynamic power = coeff · f³ · utilisation, W@GHz³
};

/// Platform-wide configuration.
struct PlatformConfig {
  std::vector<CoreSpec> cores;
  std::vector<double> freqs{0.6, 1.0, 1.4, 1.8};  ///< available GHz levels
  double tick = 0.005;                             ///< simulation step, s

  // First-order thermal model (per core): dT/dt = heat·power − cool·(T−amb).
  // When a core crosses `throttle_c` the hardware clamps it to the minimum
  // frequency until it cools below `recover_c` — invisible to a manager
  // that does not watch temperature.
  bool thermal = false;       ///< enable the thermal model
  double ambient_c = 40.0;
  double heat_per_w = 12.0;   ///< °C/s gained per watt of core power
  double cool_rate = 0.5;     ///< 1/s towards ambient
  double throttle_c = 85.0;
  double recover_c = 60.0;    ///< deep hysteresis: throttling is punishing

  /// Canonical big.LITTLE chip used throughout tests and benches.
  static PlatformConfig big_little(std::size_t n_big, std::size_t n_little);
};

/// One unit of work.
struct Task {
  double remaining = 0.0;  ///< giga-ops left
  double total = 0.0;      ///< giga-ops at submission
  double arrived = 0.0;    ///< arrival time, s
  double deadline = 0.0;   ///< relative deadline, s (0 = none)
};

/// Contiguous FIFO ring of tasks — the per-core run queue, one flat
/// buffer so push/pop are branch-plus-store.
///
/// Besides the tasks it keeps two doubles updated in O(1) by every
/// mutation: `run_`, a running sum of `remaining`, and `err_`, a bound on
/// |run_ − T| where T is the exact real sum of the queued work. Every
/// update charges its own rounding error (with a unit roundoff of 2⁻⁵⁰,
/// eight times the true 2⁻⁵³) and rounds the charge up, so the bound
/// holds however long the queue goes without emptying; both reset to
/// exactly 0 when it does empty. backlog_bounds() widens [run_ ± err_] by
/// the recursive-summation bound for non-negative terms, |S − T| ≤ γₙ₋₁·T,
/// so the interval always contains the FIFO-order float sum S that
/// backlog() returns. A looser bound only costs place() more exact
/// re-sums; it can never change a decision.
class TaskRing {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] const Task& front() const { return buf_[head_]; }
  /// i-th task in FIFO order (0 = front).
  [[nodiscard]] const Task& operator[](std::size_t i) const {
    return buf_[wrap(head_ + i)];
  }
  void push_back(const Task& t) {
    if (count_ == buf_.size()) grow();
    buf_[tail_] = t;
    tail_ = wrap(tail_ + 1);
    ++count_;
    update(t.remaining);
  }
  void pop_front() {
    const double r = buf_[head_].remaining;
    head_ = wrap(head_ + 1);
    --count_;
    update(-r);
  }
  /// Drains `done` giga-ops (0 ≤ done ≤ remaining) from the front task
  /// and returns its new remaining work.
  double consume_front(double done) {
    Task& t = buf_[head_];
    const double before = t.remaining;
    t.remaining -= done;
    update(t.remaining - before);
    return t.remaining;
  }
  /// Drains every task, FIFO order, into `out` (used by core fail-over).
  void drain_into(std::vector<Task>& out) {
    for (std::size_t i = 0; i < count_; ++i) out.push_back((*this)[i]);
    head_ = tail_ = count_ = 0;
    run_ = err_ = 0.0;
  }
  /// Sum of remaining work, accumulated front to back in FIFO order over
  /// the ring's two contiguous spans. O(size); place() calls it only when
  /// the bounds cannot decide.
  [[nodiscard]] double backlog() const noexcept {
    double sum = 0.0;
    const std::size_t first = std::min(count_, buf_.size() - head_);
    for (std::size_t i = 0; i < first; ++i) {
      sum += buf_[head_ + i].remaining;
    }
    for (std::size_t i = 0; i < count_ - first; ++i) {
      sum += buf_[i].remaining;
    }
    return sum;
  }
  /// O(1) interval with lo ≤ backlog() ≤ hi (see the class comment).
  void backlog_bounds(double& lo, double& hi) const noexcept {
    // γₙ₋₁ ≤ n·u for any queue a run can hold; (n + 2)·kUnit adds the
    // slack that absorbs the rounding of the three operations below.
    const double g = static_cast<double>(count_ + 2) * kUnit;
    lo = std::max(0.0, (run_ - err_) * (1.0 - g));
    hi = (run_ + err_) * (1.0 + g);
  }

 private:
  static constexpr double kUnit = 0x1p-50;  ///< conservative unit roundoff
  /// Adds `delta` to the running sum and charges the rounding error of
  /// that add (plus any in forming `delta`) to err_, rounded upwards.
  void update(double delta) noexcept {
    if (count_ == 0) {
      run_ = err_ = 0.0;
      return;
    }
    run_ += delta;
    err_ = (err_ + kUnit * (std::abs(run_) + std::abs(delta))) *
           (1.0 + kUnit);
  }
  [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept {
    return i >= buf_.size() ? i - buf_.size() : i;
  }
  void grow() {
    std::vector<Task> bigger;
    bigger.reserve(buf_.empty() ? 8 : buf_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) bigger.push_back((*this)[i]);
    bigger.resize(bigger.capacity());
    buf_ = std::move(bigger);
    head_ = 0;
    tail_ = count_;
  }
  std::vector<Task> buf_;
  std::size_t head_ = 0, tail_ = 0, count_ = 0;
  double run_ = 0.0;  ///< running sum of remaining
  double err_ = 0.0;  ///< bound on |run_ − exact sum of remaining|
};

/// Statistics harvested per control epoch.
struct EpochStats {
  double duration = 0.0;       ///< epoch length, s
  std::size_t completed = 0;   ///< tasks finished
  std::size_t arrived = 0;     ///< tasks submitted
  double throughput = 0.0;     ///< completed / duration, tasks/s
  double mean_latency = 0.0;   ///< mean sojourn time of completed tasks, s
  double p95_latency = 0.0;    ///< 95th percentile sojourn, s
  double mean_power = 0.0;     ///< energy / duration, W
  double energy = 0.0;         ///< J over the epoch
  double miss_rate = 0.0;      ///< completed tasks past their deadline
  double mean_queue = 0.0;     ///< time-weighted total queued tasks
  double utilisation = 0.0;    ///< mean busy fraction across cores
  double offered_gops = 0.0;   ///< submitted work per second, giga-ops/s
  double max_temp_c = 0.0;     ///< hottest core temperature seen, °C
  double throttle_frac = 0.0;  ///< fraction of core-time spent throttled
};

/// The simulated chip plus its workload source.
class Platform {
 public:
  Platform(PlatformConfig cfg, std::uint64_t seed);

  // -- Actuation (what a run-time manager can change) -----------------------
  /// Sets one core's DVFS level (index into cfg.freqs).
  void set_freq_level(std::size_t core, std::size_t level);
  /// Sets every core's DVFS level.
  void set_all_freq(std::size_t level);
  void set_mapping(Mapping m) noexcept { mapping_ = m; }

  // -- Fault surfaces (driven by sa::fault, inert otherwise) ----------------
  /// Marks `core` failed: it drains nothing, draws no power and receives no
  /// placements; its queued tasks are re-homed onto surviving cores. A
  /// manager that never watches per-core state only sees throughput drop.
  void fail_core(std::size_t core);
  void restore_core(std::size_t core) { failed_[core] = false; }
  [[nodiscard]] bool core_failed(std::size_t core) const {
    return failed_[core];
  }
  [[nodiscard]] std::size_t cores_failed() const;
  /// Clamps the *effective* DVFS level chip-wide (firmware/power-delivery
  /// cap): speed and power use min(requested, cap), and the manager's
  /// requested levels resume untouched when the cap lifts. SIZE_MAX = none.
  void set_freq_cap(std::size_t max_level) noexcept { freq_cap_ = max_level; }
  [[nodiscard]] std::size_t freq_cap() const noexcept { return freq_cap_; }

  // -- Workload (what the environment changes) ------------------------------
  /// Poisson arrivals at `rate` tasks/s, exponential work with mean
  /// `mean_work` giga-ops, relative deadline `deadline` s (0 disables).
  void set_workload(double rate, double mean_work, double deadline);

  // -- Simulation ------------------------------------------------------------
  void step();                 ///< advance one tick
  void run_for(double secs);   ///< advance ⌈secs/tick⌉ ticks
  [[nodiscard]] double now() const noexcept { return now_; }
  /// Drives step() through `engine` every `period` (<= 0 defaults to the
  /// configured tick) at order 0 = dynamics. Don't combine with a
  /// Manager::bind on the same platform — the manager adapter steps the
  /// platform itself.
  void bind(sim::Engine& engine, double period = 0.0);
  /// Emits one kFailure per thermal-throttle engagement (value = core
  /// temperature, detail = core name). Non-owning; null disables emission.
  void set_telemetry(sim::TelemetryBus* bus);

  // -- Sensing ----------------------------------------------------------------
  /// Stats accumulated since the previous harvest; resets accumulators.
  EpochStats harvest();
  /// Instantaneous total queue depth (tasks waiting or running).
  [[nodiscard]] std::size_t queued() const;
  /// Tasks waiting or running on one core.
  [[nodiscard]] std::size_t queued(std::size_t core) const {
    return queue_[core].size();
  }
  /// Instantaneous power draw at current frequencies/occupancy, W.
  [[nodiscard]] double instantaneous_power() const;

  [[nodiscard]] std::size_t cores() const noexcept { return specs_.size(); }
  [[nodiscard]] const CoreSpec& spec(std::size_t core) const {
    return specs_[core];
  }
  [[nodiscard]] std::size_t freq_level(std::size_t core) const {
    return level_[core];
  }
  [[nodiscard]] std::size_t freq_levels() const noexcept {
    return cfg_.freqs.size();
  }
  /// Frequency in GHz of a DVFS level.
  [[nodiscard]] double freq_ghz(std::size_t level) const {
    return cfg_.freqs[std::min(level, cfg_.freqs.size() - 1)];
  }
  [[nodiscard]] Mapping mapping() const noexcept { return mapping_; }
  /// Full platform configuration (the "datasheet" a self-model may use).
  [[nodiscard]] const PlatformConfig& config() const noexcept {
    return cfg_;
  }
  /// Current temperature of `core` (ambient when thermal model disabled).
  [[nodiscard]] double temperature(std::size_t core) const {
    return temp_.empty() ? cfg_.ambient_c : temp_[core];
  }
  /// True if `core` is currently thermally throttled.
  [[nodiscard]] bool throttled(std::size_t core) const {
    return !throttled_.empty() && throttled_[core];
  }

 private:
  [[nodiscard]] double speed(std::size_t core) const;  // giga-ops/s
  [[nodiscard]] std::size_t place() const;
  void admit(Task task);

  PlatformConfig cfg_;
  std::vector<CoreSpec> specs_;
  std::vector<std::size_t> level_;
  std::vector<bool> failed_;       ///< fault-injected dead cores
  std::size_t freq_cap_ = static_cast<std::size_t>(-1);
  std::vector<TaskRing> queue_;
  std::vector<Task> orphans_;  ///< fail-over scratch (reused)
  Mapping mapping_ = Mapping::Balanced;
  sim::Rng rng_;
  double now_ = 0.0;

  double rate_ = 0.0, mean_work_ = 1.0, deadline_ = 0.0;

  std::vector<double> temp_;       ///< per-core temperature (thermal only)
  std::vector<bool> throttled_;    ///< hardware clamp active

  sim::TelemetryBus* telemetry_ = nullptr;
  sim::SubjectId subject_ = 0;

  // Epoch accumulators.
  double epoch_start_ = 0.0;
  std::size_t completed_ = 0, arrived_ = 0, missed_ = 0;
  double offered_work_ = 0.0;  ///< giga-ops submitted this epoch
  sim::RunningStats latency_;
  sim::Histogram latency_hist_{0.0, 5.0, 200};
  double energy_ = 0.0;
  sim::TimeWeighted queue_tw_;
  double busy_time_ = 0.0;  ///< core-seconds spent busy this epoch
  double max_temp_epoch_ = 0.0;
  double throttle_time_ = 0.0;  ///< core-seconds spent throttled this epoch
};

}  // namespace sa::multicore

// Typed telemetry bus.
//
// Replaces the old string-triple Trace: substrates and awareness processes
// emit (time, category, subject, value, detail) events through one
// TelemetryBus per scenario. Categories and subjects are interned once to
// small integer ids, so the hot path is O(1): bump a per-category counter
// and hand the event to each registered sink. The bus keeps counts only;
// anything that wants the values (a mean, a distribution) reads them from
// a sink. Telemetry is off where no bus is handed in: an emitter holding a
// null TelemetryBus* pays one null check and no allocation.
//
// Sinks are non-owning observers. RingBufferSink retains the last N events
// in a sim::Ring for self-explanation queries (by_category / by_subject, in
// emission order); FanoutSink feeds the serve plane's SSE subscribers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/ring.hpp"

namespace sa::sim {

/// Interned id of an event category ("decision", "observation", ...).
using CategoryId = std::uint32_t;
/// Interned id of an emitting component ("autoscaler", "cpn.network", ...).
using SubjectId = std::uint32_t;

/// One telemetry event, as seen by sinks during dispatch. `detail` is a
/// view into caller storage and is only valid for the duration of
/// on_event(); sinks that retain events must copy it.
struct TelemetryEvent {
  double t = 0.0;
  CategoryId category = 0;
  SubjectId subject = 0;
  double value = 0.0;
  std::string_view detail;
};

/// Observer interface. Implementations must not re-enter the bus.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void on_event(const TelemetryEvent& ev) = 0;
};

class TelemetryBus {
 public:
  // The three canonical categories every substrate emits; interned by the
  // constructor so emitters can use them without a lookup.
  static constexpr CategoryId kDecision = 0;
  static constexpr CategoryId kObservation = 1;
  static constexpr CategoryId kFailure = 2;

  TelemetryBus();

  /// Returns the id for `name`, interning it on first use. O(categories);
  /// call once at wiring time, not per event.
  CategoryId intern_category(std::string_view name);
  SubjectId intern_subject(std::string_view name);
  [[nodiscard]] const std::string& category_name(CategoryId c) const {
    return category_names_.at(c);
  }
  [[nodiscard]] const std::string& subject_name(SubjectId s) const {
    return subject_names_.at(s);
  }
  [[nodiscard]] std::size_t categories() const noexcept {
    return category_names_.size();
  }
  [[nodiscard]] std::size_t subjects() const noexcept {
    return subject_names_.size();
  }

  /// Registers a non-owning sink; it must outlive the bus (or be removed
  /// by clear_sinks()). Events are dispatched in registration order.
  void add_sink(TelemetrySink* sink) { sinks_.push_back(sink); }
  void clear_sinks() { sinks_.clear(); }

  /// Records one event: counter bump + sink dispatch, no allocation in
  /// the bus itself (sinks may allocate to retain the event).
  void record(double t, CategoryId category, SubjectId subject,
              double value = 0.0, std::string_view detail = {});

  /// Events recorded under `category` so far.
  [[nodiscard]] std::uint64_t count(CategoryId category) const {
    return category < counts_.size() ? counts_[category] : 0;
  }
  /// Total events recorded across all categories.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

 private:
  std::vector<std::string> category_names_;
  std::vector<std::string> subject_names_;
  std::vector<std::uint64_t> counts_;  ///< per CategoryId
  std::vector<TelemetrySink*> sinks_;
  std::uint64_t total_ = 0;
};

/// Bounded in-memory sink: retains the most recent `capacity` events (with
/// their details copied) and answers the query API the old Trace offered —
/// by_category / by_subject in emission order.
class RingBufferSink : public TelemetrySink {
 public:
  struct Rec {
    double t = 0.0;
    CategoryId category = 0;
    SubjectId subject = 0;
    double value = 0.0;
    std::string detail;
  };

  explicit RingBufferSink(std::size_t capacity = 4096)
      : ring_(capacity ? capacity : 1) {}

  void on_event(const TelemetryEvent& ev) override;

  /// Events currently retained (≤ capacity).
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  /// Total events observed, including evicted ones.
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
  /// i-th retained event, oldest first; throws std::out_of_range if
  /// i >= size().
  [[nodiscard]] const Rec& at(std::size_t i) const { return ring_.at(i); }
  /// Retained events with the given category, in emission order.
  [[nodiscard]] std::vector<const Rec*> by_category(CategoryId c) const;
  /// Retained events emitted by the given subject, in emission order.
  [[nodiscard]] std::vector<const Rec*> by_subject(SubjectId s) const;
  void clear() { ring_.clear(); }

 private:
  Ring<Rec> ring_;
  std::uint64_t seen_ = 0;
};

/// Thread-safe subscriber hook: fans bus events out to concurrently
/// consumed bounded queues (the sa::serve SSE seam).
///
/// The bus itself is single-threaded — sinks run on the sim thread, and
/// add_sink() is wiring-time only. A FanoutSink registered like any other
/// sink extends that contract across threads: server threads subscribe()
/// and drain their own Subscription, while the sim thread's on_event()
/// *never blocks* — every lock on the hot path is a try_lock, and an event
/// that cannot be delivered (queue full, or a consumer momentarily holding
/// a lock) is counted as dropped rather than waited for. Trajectories are
/// therefore identical whether or not anyone is subscribed; only the
/// drop counters differ.
class FanoutSink : public TelemetrySink {
 public:
  /// One consumer's bounded queue. Obtain via subscribe(); drain from any
  /// single consumer thread.
  class Subscription {
   public:
    explicit Subscription(std::size_t capacity)
        : capacity_(capacity ? capacity : 1) {}

    /// Moves out everything queued so far (possibly empty), waiting up to
    /// `wait_ms` milliseconds for the first event. wait_ms == 0 polls.
    [[nodiscard]] std::vector<RingBufferSink::Rec> drain(long wait_ms = 0);

    /// Events dropped because this queue was full or momentarily locked
    /// by its consumer. Monotone; exposed to scrapers.
    [[nodiscard]] std::uint64_t dropped() const noexcept {
      return dropped_.load(std::memory_order_relaxed);
    }
    /// Events successfully enqueued so far.
    [[nodiscard]] std::uint64_t delivered() const noexcept {
      return delivered_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

   private:
    friend class FanoutSink;
    /// Sim-thread side: try_lock push; drops (with counter) on contention
    /// or overflow. Never blocks. Returns whether the event was enqueued
    /// so the sink can aggregate overflow drops across subscribers.
    bool offer(const TelemetryEvent& ev);

    std::size_t capacity_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<RingBufferSink::Rec> queue_;  ///< guarded by mu_
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> delivered_{0};
  };

  explicit FanoutSink(std::size_t queue_capacity = 1024)
      : queue_capacity_(queue_capacity) {}

  /// Registers a new consumer queue. Thread-safe.
  [[nodiscard]] std::shared_ptr<Subscription> subscribe();
  /// Detaches a consumer queue; the sim thread stops delivering to it.
  void unsubscribe(const std::shared_ptr<Subscription>& sub);
  [[nodiscard]] std::size_t subscribers() const;

  /// Sim-thread dispatch. Never blocks: if the subscriber list is being
  /// mutated right now, the event is dropped for all subscribers and
  /// counted in dropped_contended().
  void on_event(const TelemetryEvent& ev) override;

  /// Events dropped because the subscriber list was locked mid-dispatch.
  [[nodiscard]] std::uint64_t dropped_contended() const noexcept {
    return dropped_contended_.load(std::memory_order_relaxed);
  }
  /// Per-subscriber delivery failures (queue full, or the consumer held
  /// its queue lock at event time), summed across all subscribers
  /// including already-departed ones — unlike Subscription::dropped(),
  /// this survives unsubscribe, so scrapers get a monotone counter.
  [[nodiscard]] std::uint64_t dropped_overflow() const noexcept {
    return dropped_overflow_.load(std::memory_order_relaxed);
  }
  /// Events offered to at least one subscriber (0 while nobody listens:
  /// an unobserved bus pays one try_lock and no allocation).
  [[nodiscard]] std::uint64_t offered() const noexcept {
    return offered_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t queue_capacity_;
  mutable std::mutex mu_;  ///< guards subs_
  std::vector<std::shared_ptr<Subscription>> subs_;
  std::atomic<std::uint64_t> dropped_contended_{0};
  std::atomic<std::uint64_t> dropped_overflow_{0};
  std::atomic<std::uint64_t> offered_{0};
};

}  // namespace sa::sim

// Decision-provenance tracing on top of the telemetry bus.
//
// A Tracer records *spans* (begin/end intervals in simulated time, with an
// interned subject and name and optional numeric args) and *flow links*
// (causal chains across spans: stimulus → knowledge update → decision →
// action → outcome). Every span and every flow carries a monotonically
// assigned TraceId, which is threaded through core::Stimulus,
// core::Decision and core::Explanation so a rendered self-explanation can
// cite the exact trace records of the evidence it consulted.
//
// Timestamps are *virtual sim-time* — never wall clock — so the recorded
// stream, and the Chrome/Perfetto trace-event JSON exported from it by
// exp::write_chrome_trace, is bitwise-identical across runs and across
// `--jobs N` (each grid cell owns its own Tracer). Wall-clock
// self-profiling lives in MetricsRegistry instead (see sim/metrics.hpp).
//
// Cost contract (mirrors TelemetryBus): tracing is off where no tracer is
// handed in, and an absent tracer costs one null check and zero heap
// allocations at each call site. Tracing must never touch an Rng — handing
// in a tracer cannot perturb a trajectory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/telemetry.hpp"

namespace sa::sim {

/// Monotone per-Tracer identifier of a span or flow chain. 0 = "none":
/// decisions taken without a tracer carry trace_id 0.
///
/// Layout: the high 16 bits carry the tracer's *namespace* (0 by default),
/// the low 48 bits a per-tracer monotone counter. Scenarios that stitch
/// traces from several tracers (one per domain/agent, see the
/// cross_domain example) give each a distinct namespace so ids stay
/// globally unique across the merged stream.
using TraceId = std::uint64_t;

/// Bit position of the namespace field within a TraceId.
inline constexpr unsigned kTraceNamespaceShift = 48;
/// Mask of the counter field (low 48 bits).
inline constexpr TraceId kTraceCounterMask =
    (TraceId{1} << kTraceNamespaceShift) - 1;

/// Namespace field of a TraceId (0 for single-tracer setups).
[[nodiscard]] constexpr std::uint16_t trace_namespace_of(TraceId id) noexcept {
  return static_cast<std::uint16_t>(id >> kTraceNamespaceShift);
}
/// Counter field of a TraceId.
[[nodiscard]] constexpr TraceId trace_counter_of(TraceId id) noexcept {
  return id & kTraceCounterMask;
}

/// Interned id of a span/flow name ("oda", "decide", ...). Tracer-local.
using NameId = std::uint32_t;

/// Position of a flow point within its causal chain. Begin opens the chain
/// (Chrome phase "s"), Step continues it ("t"), End terminates it ("f").
enum class FlowPhase : std::uint8_t { Begin, Step, End };

class Tracer {
 public:
  /// One recorded entry, in emission order. Span begins and ends are
  /// separate entries so that zero-duration spans at one instant still
  /// nest by emission order (Chrome "B"/"E" semantics).
  struct Event {
    enum class Kind : std::uint8_t { Begin, End, Flow };
    Kind kind = Kind::Begin;
    double t = 0.0;
    SubjectId subject = 0;
    NameId name = 0;
    TraceId id = 0;
    FlowPhase phase = FlowPhase::Begin;  ///< Flow events only
    std::vector<std::pair<NameId, double>> args;  ///< Begin events only
  };

  /// RAII handle for an open span. Destruction closes the span at its
  /// begin time; end_at() closes it at a later sim time. An inert Span
  /// (default-constructed, as untraced call sites use) does nothing.
  class Span {
   public:
    Span() = default;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&& o) noexcept { *this = std::move(o); }
    Span& operator=(Span&& o) noexcept {
      if (this != &o) {
        end();
        tracer_ = o.tracer_;
        event_ = o.event_;
        id_ = o.id_;
        t_ = o.t_;
        o.tracer_ = nullptr;
      }
      return *this;
    }
    ~Span() { end(); }

    /// Attaches a numeric argument to the span (exported into the trace
    /// event's "args"). No-op on an inert span.
    void arg(NameId key, double value);
    /// Closes at the begin time (the common case: work within one event).
    void end();
    /// Closes at an explicit later time (epoch-length spans).
    void end_at(double t);
    [[nodiscard]] TraceId id() const noexcept { return id_; }
    explicit operator bool() const noexcept { return tracer_ != nullptr; }

   private:
    friend class Tracer;
    Span(Tracer* tracer, std::size_t event, TraceId id, double t) noexcept
        : tracer_(tracer), event_(event), id_(id), t_(t) {}
    Tracer* tracer_ = nullptr;
    std::size_t event_ = 0;  ///< index of the Begin event
    TraceId id_ = 0;
    double t_ = 0.0;  ///< begin time; default end time
  };

  /// Subjects are interned through `bus` so span tracks and telemetry
  /// events share one subject namespace. Non-owning; must outlive the
  /// tracer. `ns` becomes the high-16-bit namespace of every TraceId this
  /// tracer assigns (0 keeps ids plain counters — the single-tracer case).
  explicit Tracer(TelemetryBus& bus, std::uint16_t ns = 0)
      : bus_(&bus), ns_(ns) {}

  [[nodiscard]] TelemetryBus& bus() noexcept { return *bus_; }
  [[nodiscard]] const TelemetryBus& bus() const noexcept { return *bus_; }

  /// Interns a span/flow name (linear scan — call at wiring time).
  NameId intern_name(std::string_view name);
  [[nodiscard]] const std::string& name(NameId n) const {
    return names_.at(n);
  }
  [[nodiscard]] std::size_t names() const noexcept { return names_.size(); }

  /// Next TraceId (counter monotone from 1, namespaced).
  TraceId next_id() noexcept { return compose(++counter_); }
  /// Last assigned TraceId (0 before the first).
  [[nodiscard]] TraceId last_id() const noexcept {
    return counter_ == 0 ? 0 : compose(counter_);
  }

  /// This tracer's TraceId namespace (the constructor's `ns`).
  [[nodiscard]] std::uint16_t trace_namespace() const noexcept { return ns_; }

  /// Opens a span at sim time `t`. Spans on one subject must close LIFO
  /// (they nest).
  [[nodiscard]] Span span(double t, SubjectId subject, NameId name);

  /// Records one causal flow point. Flow points are exported bound to the
  /// innermost span open on `subject` at emission time, so emit them
  /// while that span is open.
  void flow(double t, FlowPhase phase, TraceId id, SubjectId subject,
            NameId name);

  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }
  /// Spans opened so far (== Begin events).
  [[nodiscard]] std::size_t spans() const noexcept { return span_count_; }
  /// Flow points recorded so far.
  [[nodiscard]] std::size_t flows() const noexcept { return flow_count_; }
  /// Currently open (unclosed) spans.
  [[nodiscard]] std::size_t depth() const noexcept { return open_.size(); }
  void clear();

 private:
  friend class Span;
  void close(std::size_t event_index, double t);
  [[nodiscard]] TraceId compose(TraceId counter) const noexcept {
    return (static_cast<TraceId>(ns_) << kTraceNamespaceShift) |
           (counter & kTraceCounterMask);
  }

  TelemetryBus* bus_;
  std::uint16_t ns_ = 0;  ///< namespace stamped into assigned TraceIds
  std::vector<std::string> names_;
  std::vector<Event> events_;
  std::vector<std::size_t> open_;  ///< stack of open Begin event indices
  TraceId counter_ = 0;  ///< low-48-bit id counter
  std::size_t span_count_ = 0;
  std::size_t flow_count_ = 0;
};

}  // namespace sa::sim

// Discrete-event simulation engine.
//
// A minimal, deterministic DES kernel: events are (time, order, sequence)
// entries in a slot-indexed binary heap over a pooled slot arena. All
// substrates (svc, cloud, multicore, cpn) can schedule their dynamics
// through one Engine instance via their bind() adapters (see each
// substrate's simulator/controller), which is how core::AgentRuntime
// co-schedules agents, reward delivery, knowledge exchange and substrate
// ticks at independent periods.
//
// Data layout (the hot path is allocation-free in steady state):
//  * The heap orders plain (t, order, seq, slot) entries — 24-byte PODs
//    that sift by copy, never by moving a std::function.
//  * Callables live in a free-list slot arena. One-shot slots are recycled
//    the moment they fire; periodic slots persist across firings, so
//    every() re-arms by pushing a fresh heap entry onto its existing slot
//    instead of re-capturing a closure per firing.
//  * step() moves the callable out of its slot before running it, so an
//    action may freely schedule (growing/reallocating the arena) or even
//    clear() the engine while executing.
//
// Determinism contract:
//  * Ties in time break by `order` (lower first), then by scheduling
//    sequence (earlier at() call first). Periodic streams created by
//    every() re-arm on each firing with a fresh sequence number, so at a
//    coincidence of two equal-order streams the LONGER-period stream runs
//    first (its event was armed further in the past). When the intent is
//    "dynamics before control at the same instant", encode it with
//    `order` — the convention used throughout is: fault injection at
//    order -1 (sa::fault — faults landing at t are in force before
//    anything else at t runs), substrate dynamics at order 0,
//    agent/control steps at order 1, knowledge exchange at order 2 —
//    rather than relying on scheduling age.
//  * every(period) fires at base + n*period computed by multiplication,
//    not by accumulating now+period, so periodic events do not drift: the
//    100th firing of every(0.005) lands exactly on t=0.5 and coincides
//    with a control event scheduled there.
//
// Checkpoint seam (sa::ckpt): std::function callables cannot be
// serialized, so persistence works by *naming* them. Schedulers that want
// their events to survive a checkpoint use the _tagged entry points; a
// tag is a stable 64-bit identity (conventionally event_tag() of a stream
// name). export_timeline() serializes every pending heap entry as
// {t, order, seq, tag} (+ re-arm state for periodic streams, + a payload
// for one-shots) in a canonical order. A world is restored by replaying
// it from its spec and seed to the checkpoint time; the checkpoint then
// attests, byte for byte, that the replayed timeline is the saved one
// (ckpt::WorldCheckpoint::verify). Sequence numbers are part of the image
// because tie-breaking depends on them.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sa::sim {

/// Simulated time in abstract seconds.
using Time = double;

namespace detail {
/// Process-wide count of executed events across all Engine instances.
/// Engines flush into it in batches (on destruction and clear()), so the
/// per-event hot loop never touches the atomic. exp::Harness samples it
/// around a run to report events/sec in bench meta blocks.
inline std::atomic<std::uint64_t>& global_event_counter() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter;
}
}  // namespace detail

/// Stable identity of a checkpointable event stream (0 = untagged).
using EventTag = std::uint64_t;

/// FNV-1a over a stream name — the conventional way to derive an EventTag.
/// Constexpr so call sites can tag with string literals at no runtime cost.
constexpr EventTag event_tag(std::string_view name) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name)
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return h == 0 ? 1 : h;  // reserve 0 for "untagged"
}

/// Mixes an index into a base tag (for per-instance streams: "exchange #3").
constexpr EventTag event_tag(std::string_view name,
                             std::uint64_t index) noexcept {
  const std::uint64_t h = event_tag(name) ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  return h == 0 ? 1 : h;
}

class Engine {
 public:
  using Action = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine() { flush_executed(); }

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }
  /// Number of events executed this run (reset by clear()).
  [[nodiscard]] std::size_t executed() const noexcept { return executed_; }
  /// Number of events currently pending.
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  /// Process-wide executed-event count across all engines that have
  /// flushed (destroyed or clear()ed engines). Monotone; sample a delta
  /// around a run to derive events/sec.
  [[nodiscard]] static std::uint64_t global_executed() noexcept {
    return detail::global_event_counter().load(std::memory_order_relaxed);
  }

  /// Schedules `action` at absolute time `t` (must be >= now()). Events at
  /// equal time run in ascending `order`, then in scheduling order.
  /// Untagged events cannot cross a checkpoint (export fails on them).
  void at(Time t, Action action, int order = 0) {
    at_tagged(0, t, std::move(action), order);
  }
  /// Schedules `action` after a delay (>= 0) from now.
  void in(Time delay, Action action, int order = 0) {
    at_tagged(0, now_ + delay, std::move(action), order);
  }
  /// Schedules `action` every `period` starting at now()+period, until it
  /// returns false or the run ends. The n-th firing is at now()+n*period
  /// (computed multiplicatively — no floating-point drift across firings).
  /// The callable occupies one pooled slot for the stream's whole
  /// lifetime; firings re-arm the slot instead of re-capturing it.
  void every(Time period, std::function<bool()> action, int order = 0) {
    every_tagged(0, period, std::move(action), order);
  }

  // -- Tagged scheduling (sa::ckpt seam) ------------------------------------

  /// at() with a stable identity. `payload` is opaque bytes written into
  /// the checkpoint image next to the event, so the attestation covers
  /// state the tag alone does not name (a pending fault end's unit and
  /// magnitude, a retry's attempt number); leave empty when the tag says
  /// it all.
  void at_tagged(EventTag tag, Time t, Action action, int order = 0,
                 std::string payload = {}) {
    const std::uint32_t slot = alloc_slot();
    Slot& s = slots_[slot];
    s.once = std::move(action);
    s.is_periodic = false;
    s.tag = tag;
    s.payload = std::move(payload);
    push_entry(Entry{t, order, slot, seq_++});
  }
  /// in() with a stable identity (see at_tagged).
  void in_tagged(EventTag tag, Time delay, Action action, int order = 0,
                 std::string payload = {}) {
    at_tagged(tag, now_ + delay, std::move(action), order,
              std::move(payload));
  }
  /// every() with a stable identity (see at_tagged). Its re-arm state
  /// (base, n, period) is part of the checkpoint image.
  void every_tagged(EventTag tag, Time period, std::function<bool()> action,
                    int order = 0) {
    const std::uint32_t slot = alloc_slot();
    Slot& s = slots_[slot];
    s.periodic = std::move(action);
    s.is_periodic = true;
    s.base = now_;
    s.period = period;
    s.n = 1;
    s.order = order;
    s.tag = tag;
    push_entry(Entry{s.base + static_cast<Time>(s.n) * s.period, order, slot,
                     seq_++});
  }

  /// Runs until the event queue empties or simulated time reaches `horizon`.
  /// Events scheduled exactly at the horizon still execute.
  void run_until(Time horizon) {
    while (!heap_.empty() && heap_.front().t <= horizon) {
      step();
    }
    now_ = std::max(now_, horizon);
  }
  /// Runs the entire queue to exhaustion (use with bounded workloads).
  void run() {
    while (!heap_.empty()) step();
  }
  /// Runs every event strictly before the global instant (t, order) —
  /// lexicographic on the determinism contract's (time, order) key. The
  /// sa::shard barrier protocol uses this to drain a shard engine up to
  /// the coordinator's next event. now() is left at the last executed
  /// event (never advanced to `t`), so a later run_until/run_until_before
  /// resumes exactly where this call stopped.
  void run_until_before(Time t, int order) {
    while (!heap_.empty() &&
           (heap_.front().t < t ||
            (heap_.front().t == t && heap_.front().order < order))) {
      step();
    }
  }
  /// Peeks the next pending event's (t, order) without executing it.
  /// Returns false when the queue is empty.
  [[nodiscard]] bool peek_next(Time& t, int& order) const noexcept {
    if (heap_.empty()) return false;
    t = heap_.front().t;
    order = heap_.front().order;
    return true;
  }
  /// Executes exactly one event if present; returns whether one ran.
  bool step() {
    if (heap_.empty()) return false;
    const Entry top = heap_.front();
    pop_front();
    now_ = top.t;
    ++executed_;
    Slot& s = slots_[top.slot];
    if (!s.is_periodic) {
      // Move the callable out and recycle the slot *before* running, so a
      // nested at()/every() may reuse it immediately.
      Action act = std::move(s.once);
      free_slot(top.slot);
      if (profile_) {
        const auto wall0 = std::chrono::steady_clock::now();
        act();
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - wall0;
        profile_(top.t, top.order, wall.count());
      } else {
        act();
      }
    } else {
      // Move the callable out for reentrancy: the action may schedule
      // (reallocating the arena) or clear() the engine while running.
      std::function<bool()> fn = std::move(s.periodic);
      const std::uint64_t epoch = clear_epoch_;
      bool again;
      if (profile_) {
        const auto wall0 = std::chrono::steady_clock::now();
        again = fn();
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - wall0;
        profile_(top.t, top.order, wall.count());
      } else {
        again = fn();
      }
      if (clear_epoch_ != epoch) return true;  // clear() ran inside fn.
      Slot& live = slots_[top.slot];  // Re-resolve: arena may have grown.
      if (again) {
        // Re-arm after the action ran, with a fresh sequence number — so
        // events the action itself scheduled sort ahead of the next
        // firing, exactly as the re-scheduling closure used to behave.
        live.periodic = std::move(fn);
        ++live.n;
        push_entry(Entry{live.base + static_cast<Time>(live.n) * live.period,
                         live.order, top.slot, seq_++});
      } else {
        free_slot(top.slot);
      }
    }
    return true;
  }

  /// Self-profiling hook: called after every executed event with its sim
  /// time, order, and measured wall-clock handler cost in seconds. Wall
  /// times belong in a MetricsRegistry, never in simulation logic or the
  /// trace file — they are not reproducible.
  using ProfileHook = std::function<void(Time t, int order, double wall_s)>;
  void set_profile_hook(ProfileHook hook) { profile_ = std::move(hook); }
  /// Discards all pending events and resets the per-run counters
  /// (executed(), scheduling sequence) for the next scenario. Simulated
  /// time is preserved. Safe to call from within an executing event: the
  /// in-flight periodic stream is dropped rather than re-armed.
  void clear() {
    flush_executed();
    heap_.clear();
    slots_.clear();
    free_head_ = kNoSlot;
    executed_ = 0;
    flushed_ = 0;
    seq_ = 0;
    ++clear_epoch_;
  }

  // -- Checkpoint export (sa::ckpt seam) -------------------------------------

  /// One pending event as it crosses a checkpoint: identity + timing, no
  /// callable. Periodic events carry their drift-free re-arm state
  /// (the stream fires at base + n*period).
  struct TimelineEvent {
    Time t = 0.0;
    int order = 0;
    std::uint64_t seq = 0;
    EventTag tag = 0;
    bool is_periodic = false;
    Time base = 0.0;
    Time period = 0.0;
    std::uint64_t n = 0;
    std::string payload;  ///< one-shot payload (opaque)
  };
  /// The engine's full serializable state. Events are sorted by
  /// (t, order, seq) — a canonical order, so two timelines of the same
  /// world state serialize to identical bytes (the attestation property).
  struct Timeline {
    Time now = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t executed = 0;
    std::vector<TimelineEvent> events;
  };

  /// Serializes every pending event. Fails (returns false, explains in
  /// `err`) if any pending event is untagged — such an event has no
  /// identity in the image, so the attestation could not cover it.
  [[nodiscard]] bool export_timeline(Timeline& out, std::string* err) const {
    out = Timeline{};
    out.now = now_;
    out.seq = seq_;
    out.executed = executed_;
    out.events.reserve(heap_.size());
    for (const Entry& e : heap_) {
      const Slot& s = slots_[e.slot];
      if (s.tag == 0) {
        if (err != nullptr)
          *err = "untagged pending event at t=" + std::to_string(e.t) +
                 " order=" + std::to_string(e.order);
        return false;
      }
      TimelineEvent ev;
      ev.t = e.t;
      ev.order = e.order;
      ev.seq = e.seq;
      ev.tag = s.tag;
      ev.is_periodic = s.is_periodic;
      if (s.is_periodic) {
        ev.base = s.base;
        ev.period = s.period;
        ev.n = s.n;
      } else {
        ev.payload = s.payload;
      }
      out.events.push_back(std::move(ev));
    }
    std::sort(out.events.begin(), out.events.end(),
              [](const TimelineEvent& a, const TimelineEvent& b) {
                if (a.t != b.t) return a.t < b.t;
                if (a.order != b.order) return a.order < b.order;
                return a.seq < b.seq;
              });
    return true;
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Pooled callable storage. A slot is either one-shot (`once` armed,
  /// recycled on firing) or periodic (`periodic` + re-arm state, recycled
  /// when the action returns false). Free slots chain through `next_free`.
  struct Slot {
    Action once;
    std::function<bool()> periodic;
    Time base = 0.0;
    Time period = 0.0;
    std::uint64_t n = 0;
    int order = 0;
    bool is_periodic = false;
    std::uint32_t next_free = kNoSlot;
    EventTag tag = 0;      ///< checkpoint identity (0 = not checkpointable)
    std::string payload;   ///< one-shot state the image attests (opaque)
  };

  /// Heap entries are POD: sifting copies 24 bytes instead of moving
  /// std::function state.
  struct Entry {
    Time t;
    int order;
    std::uint32_t slot;
    std::uint64_t seq;
  };

  static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.t != b.t) return a.t < b.t;
    if (a.order != b.order) return a.order < b.order;
    return a.seq < b.seq;
  }

  std::uint32_t alloc_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t idx = free_head_;
      free_head_ = slots_[idx].next_free;
      slots_[idx].next_free = kNoSlot;
      return idx;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void free_slot(std::uint32_t idx) {
    Slot& s = slots_[idx];
    s.once = nullptr;      // Release captured state now, not at reuse.
    s.periodic = nullptr;
    s.is_periodic = false;
    s.tag = 0;
    s.payload.clear();
    s.next_free = free_head_;
    free_head_ = idx;
  }

  void push_entry(const Entry& e) {
    heap_.push_back(e);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void pop_front() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t l = 2 * i + 1;
      std::size_t smallest = i;
      if (l < n && before(heap_[l], heap_[smallest])) smallest = l;
      if (l + 1 < n && before(heap_[l + 1], heap_[smallest])) smallest = l + 1;
      if (smallest == i) break;
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  void flush_executed() noexcept {
    detail::global_event_counter().fetch_add(executed_ - flushed_,
                                             std::memory_order_relaxed);
    flushed_ = executed_;
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::size_t executed_ = 0;
  std::size_t flushed_ = 0;
  std::uint64_t clear_epoch_ = 0;
  ProfileHook profile_;

};

}  // namespace sa::sim

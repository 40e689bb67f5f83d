// Deterministic fault injection.
//
// The paper's central claim (H0, Section III) is that self-aware systems
// better manage trade-offs "in complex, uncertain and dynamic
// environments"; this subsystem makes the uncertainty adversarial and
// *reproducible*. A FaultPlan is pure data — a list of stochastic fault
// processes plus a seed — and the Injector turns it into engine events at
// order kOrderFaults = -1, strictly before substrate dynamics (0), agent
// control (1) and knowledge exchange (2), so a fault landing at time t is
// already in force when the dynamics tick at t runs.
//
// Determinism contract: all randomness comes from per-(process, surface)
// splitmix64-derived streams forked off the plan seed — never from a
// substrate or experiment-cell Rng — so binding an injector cannot perturb
// a trajectory, an empty plan is a guaranteed no-op, and fault sequences
// are bitwise-identical for any `--jobs N` (each grid cell owns its own
// injector, like its own engine and tracer).
//
// Fault taxonomy (kinds) and the substrates they target:
//   sensor-dropout / sensor-blur / node-crash   -> sa::svc cameras
//   core-fail / freq-cap                        -> sa::multicore
//   vm-preempt / latency-spike                  -> sa::cloud
//   link-loss / partition / link-reorder        -> sa::cpn
//   exchange-drop                               -> core::AgentRuntime
// (see fault/adapters.hpp for the substrate bindings).
//
// Evidence: planned chains and operator injections (inject_now) share one
// onset and one restore path, and each logs one plain Record — time,
// surface index, unit, magnitude, restore time, onset or restore — into a
// bounded ring. Readers (the checkpoint writer, /status, agents fed by
// feed_agent) read that ring in place through log() and name a record's
// kind and surface by surface(record.surface); no record carries a copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "sim/ring.hpp"
#include "sim/rng.hpp"
#include "sim/telemetry.hpp"

namespace sa::fault {

enum class FaultKind : std::uint8_t {
  SensorDropout,  ///< camera sees nothing while active
  SensorBlur,     ///< camera visibility scaled by (1 - magnitude)
  NodeCrash,      ///< camera crash-restart (tracks released)
  CoreFail,       ///< core dies; restart on restore
  FreqCap,        ///< chip-wide DVFS cap to level = magnitude
  VmPreempt,      ///< volunteer node reclaimed by its provider
  LatencySpike,   ///< cluster capacity divided by magnitude
  LinkLoss,       ///< link down; traffic onto it is lost
  Partition,      ///< one node isolated (all incident links down)
  LinkReorder,    ///< link latency multiplied by magnitude
  ExchangeDrop,   ///< knowledge-exchange rounds dropped
};
inline constexpr std::size_t kFaultKinds = 11;

[[nodiscard]] const char* kind_name(FaultKind k) noexcept;
/// Parses a kind name ("core-fail", ...); throws std::invalid_argument.
[[nodiscard]] FaultKind kind_from(std::string_view name);

/// One stochastic fault process: faults of one kind arriving in bursts.
///
/// Bursts start as a Poisson process of rate `rate / burstiness`; each
/// burst contains round(burstiness) faults spaced closely (within roughly
/// one fault duration), so the long-run fault rate stays `rate` while
/// burstiness > 1 produces overlapping, simultaneous failures — the case
/// that defeats one-at-a-time recovery.
struct FaultProcess {
  FaultKind kind = FaultKind::LinkLoss;
  double rate = 0.01;       ///< mean faults per sim-second
  double burstiness = 1.0;  ///< >= 1; faults per burst
  /// Mean fault duration (exponential); <= 0 makes faults permanent.
  double duration_mean = 10.0;
  double magnitude = 1.0;   ///< kind-specific severity knob
  double start = 0.0;       ///< process active from here...
  double end = std::numeric_limits<double>::infinity();  ///< ...to here

  [[nodiscard]] bool operator==(const FaultProcess&) const = default;
};

/// A seeded list of fault processes — the whole scenario as data.
struct FaultPlan {
  std::vector<FaultProcess> processes;
  std::uint64_t seed = 0;

  [[nodiscard]] bool empty() const noexcept { return processes.empty(); }

  /// Parses "kind:key=value,...;kind:..." (e.g. the harness --fault-plan
  /// flag). Keys: rate, burst, dur, mag, start, end; "seed=N" as a
  /// standalone item sets the plan seed. Empty spec -> empty plan. Throws
  /// std::invalid_argument on unknown kinds/keys or malformed numbers.
  [[nodiscard]] static FaultPlan parse(std::string_view spec);
  /// Canonical spec string (parse(to_string()) round-trips).
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool operator==(const FaultPlan&) const = default;
};

/// Schedules a FaultPlan's processes onto an engine and dispatches each
/// fault to a registered surface. Owns a bounded fault-event log (a
/// sim::Ring, like core::Explainer's decision log) plus counters, and can
/// mirror each event to telemetry (kFailure) and to subscribed listeners.
class Injector {
 public:
  /// Engine order of fault onset/restore events: before everything else
  /// at coincident times (see sim/engine.hpp order convention).
  static constexpr int kOrderFaults = -1;

  /// A fault target: `units` interchangeable instances (cores, cameras,
  /// links, ...) with begin/end actuators. `end` may be empty for
  /// surfaces that only support permanent faults; it receives the same
  /// unit and magnitude its matching begin got, so adapters can retire
  /// exactly the contribution that is ending when overlapping faults of
  /// different severities restore out of order.
  struct Surface {
    FaultKind kind = FaultKind::LinkLoss;
    std::string name;       ///< "multicore.core", "cpn.link", ...
    std::size_t units = 1;
    std::function<void(std::size_t unit, double magnitude)> begin;
    std::function<void(std::size_t unit, double magnitude)> end;
  };

  /// One log entry: a fault onset (begin = true) or restore on registered
  /// surface `surface`, whose kind and name surface(surface) holds.
  struct Record {
    double t = 0.0;
    std::size_t surface = 0;
    std::size_t unit = 0;
    double magnitude = 0.0;
    /// Scheduled restore time (infinity = permanent).
    double until = std::numeric_limits<double>::infinity();
    bool begin = true;
  };

  /// Called on every onset and restore with the current active count.
  using Listener = std::function<void(const Record&, std::size_t active)>;

  void add_surface(Surface s);
  [[nodiscard]] std::size_t surfaces() const noexcept {
    return surfaces_.size();
  }
  /// Registered surface `i`, in registration order. The begin/end
  /// actuators are callable directly — how the adapter tests exercise a
  /// substrate's fault handling without going through a plan.
  [[nodiscard]] const Surface& surface(std::size_t i) const {
    return surfaces_[i];
  }

  /// Emits one kFailure per onset (value = magnitude, detail =
  /// "<kind> <surface>#<unit>"). Non-owning; null disables.
  void set_telemetry(sim::TelemetryBus* bus);
  void subscribe(Listener l) { listeners_.push_back(std::move(l)); }

  /// Arms `plan` on `engine`: one event chain per (process, matching
  /// surface) pair, each with its own seed-derived Rng stream. Returns the
  /// number of chains armed. Processes whose kind matches no surface are
  /// counted in unmatched_processes(). Call once per engine; the engine
  /// and this injector must outlive the run.
  std::size_t bind(sim::Engine& engine, const FaultPlan& plan);

  /// Fires one fault right now (at engine.now()) on the first surface
  /// matching `kind`, bypassing any plan: the operator's one-shot
  /// injection, used by the sa::serve control plane (POST /control) and
  /// applied only at engine-step boundaries via the control mailbox so the
  /// trajectory downstream of the injection stays deterministic. A
  /// `duration` > 0 schedules the matching restore (surfaces without an
  /// `end` actuator take permanent faults only, like planned ones).
  /// Returns false when no surface matches `kind`. Draws no randomness.
  bool inject_now(sim::Engine& engine, FaultKind kind, std::size_t unit,
                  double magnitude, double duration);

  // -- Introspection --------------------------------------------------------
  [[nodiscard]] std::size_t injected() const noexcept { return injected_; }
  [[nodiscard]] std::size_t restored() const noexcept { return restored_; }
  /// Faults currently in force (permanent faults never leave).
  [[nodiscard]] std::size_t active() const noexcept { return active_; }
  [[nodiscard]] std::size_t unmatched_processes() const noexcept {
    return unmatched_;
  }
  /// Sim time of the most recent onset (-infinity before the first).
  [[nodiscard]] double last_onset() const noexcept { return last_onset_; }

  /// Retained log entries, oldest first, read in place: a ring of 4096
  /// that keeps the newest, so a long fault storm keeps memory constant
  /// (like the Explainer's decision log).
  [[nodiscard]] const sim::Ring<Record>& log() const noexcept { return log_; }

  // -- Checkpoint seam (sa::ckpt) -------------------------------------------
  //
  // The injector's serializable state: counters and each chain's RNG +
  // burst position; the checkpoint writer reads the log in place. The
  // pending onset/restore *events* are not here — they live in the
  // engine's timeline, tagged per chain, with each pending fault end's
  // unit and magnitude in its payload.

  /// One chain's randomness, identified by its (process, surface)
  /// coordinates.
  struct StreamState {
    std::size_t process = 0;
    std::size_t surface = 0;
    sim::Rng::State rng;
    std::size_t burst_left = 0;
  };
  struct State {
    std::uint64_t injected = 0;
    std::uint64_t restored = 0;
    std::uint64_t active = 0;
    std::uint64_t unmatched = 0;
    double last_onset = 0.0;
    std::vector<StreamState> streams;
  };
  [[nodiscard]] State export_state() const;

 private:
  struct Stream;  // per-(process, surface) RNG + burst state

  void arm(sim::Engine& engine, const std::shared_ptr<Stream>& st);
  void fire(sim::Engine& engine, const std::shared_ptr<Stream>& st);
  /// The one onset path of planned and operator faults: applies `rec`,
  /// counts, logs and reports it, and schedules its restore at rec.until
  /// under `end_tag` (0 = permanent: no restore).
  void onset(sim::Engine& engine, const Record& rec, sim::EventTag end_tag);
  /// The one restore path: ends the fault `rec` began.
  void restore(Record rec);
  void notify(const Record& rec);

  std::vector<Surface> surfaces_;
  std::vector<Listener> listeners_;

  sim::TelemetryBus* telemetry_ = nullptr;
  sim::SubjectId subject_ = 0;

  std::size_t injected_ = 0;
  std::size_t restored_ = 0;
  std::size_t active_ = 0;
  std::size_t unmatched_ = 0;
  double last_onset_ = -std::numeric_limits<double>::infinity();

  sim::Ring<Record> log_{4096};
  /// kFailure detail, formatted in place on each onset.
  std::string detail_;

  /// Chains armed by bind(), in (process, surface) order — owned here so
  /// checkpointing can reach their RNG/burst state after the engine has
  /// consumed the arm closures.
  std::vector<std::shared_ptr<Stream>> streams_;
};

}  // namespace sa::fault

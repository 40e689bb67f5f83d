// AgentRuntime: periodic agent execution on the simulation engine.
//
// Binds SelfAwareAgents to a sim::Engine so that control loops, reward
// delivery, knowledge exchange and substrate dynamics run as scheduled
// events in simulated time — the glue for multi-agent scenarios where
// entities run at different periods (e.g. a fast platform manager next to
// a slow fleet-level coordinator), and the one place where agents and the
// worlds they control are co-scheduled.
//
// Event ordering at coincident times follows the engine-wide convention
// (see sim/engine.hpp): substrate dynamics at kOrderDynamics, agent steps
// and reward delivery at kOrderControl, knowledge exchange at
// kOrderExchange. A control step at t therefore always sees the world
// state *after* the dynamics tick at t, and exchanges see post-decision
// knowledge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/agent.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace sa::core {

class DegradationPolicy;

class AgentRuntime {
 public:
  /// Engine `order` values used by the runtime (lower runs first at ties).
  /// Fault injection (sa::fault::Injector::kOrderFaults) sits at -1, before
  /// dynamics, so every tick sees a settled fault state.
  static constexpr int kOrderFaults = -1;
  static constexpr int kOrderDynamics = 0;
  static constexpr int kOrderControl = 1;
  static constexpr int kOrderExchange = 2;

  explicit AgentRuntime(sim::Engine& engine) : engine_(engine) {}

  /// Attaches a self-profiling registry: every subsequently scheduled
  /// stream registers a `profile.<name>.count` counter and a
  /// `profile.<name>.ms` wall-clock timer. Wall-clock values never enter
  /// simulation logic, knowledge or the trace; they are observational
  /// only. Call before schedule*(). Non-owning; null disables.
  void set_metrics(sim::MetricsRegistry* metrics) noexcept {
    metrics_ = metrics;
  }
  /// Attaches a tracer: each subsequently scheduled stream emits one span
  /// per firing under subject `runtime.<name>`. Call before schedule*().
  /// Non-owning; null disables.
  void set_tracer(sim::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Steps `agent` every `period` seconds (first step after one period) at
  /// kOrderControl. If `reward_after` is set, its value is fed to the agent
  /// after each step. The agent must outlive the runtime's engine events.
  void schedule(SelfAwareAgent& agent, double period,
                std::function<double()> reward_after = {});

  /// Every `period`, exchanges public knowledge among `agents` in a full
  /// mesh (each imports every other's snapshot) at kOrderExchange.
  /// Pointers must stay valid. When the exchange gate is blocked (see
  /// set_exchange_blocked — the ExchangeDrop fault surface), the round is
  /// not aborted: it retries with exponential backoff (set_exchange_retry)
  /// and, only after the retries are exhausted, counts a timeout and
  /// reports the failed round to every agent's interaction awareness.
  void schedule_exchange(std::vector<SelfAwareAgent*> agents, double period);

  /// Every `period`, runs `policy.update(now)` at kOrderControl (after
  /// agent steps at the same instant, in registration order), passing the
  /// monitoring span's trace id so transition explanations cite it.
  /// The policy must outlive the runtime's engine events. `on` overrides
  /// the engine the stream is scheduled on (sa::shard pins a ladder to
  /// the engine shard that owns its agent, so the update reads the
  /// shard's clock); null keeps the runtime's own engine.
  void schedule_degradation(DegradationPolicy& policy, double period,
                            sim::Engine* on = nullptr);

  // -- Exchange fault surface ----------------------------------------------
  /// Gates scheduled exchanges: while blocked, exchange rounds defer and
  /// retry instead of importing. Driven by fault::bind_exchange; harmless
  /// to call directly.
  void set_exchange_blocked(bool blocked) noexcept {
    exchange_blocked_ = blocked;
  }
  [[nodiscard]] bool exchange_blocked() const noexcept {
    return exchange_blocked_;
  }
  /// Retry budget per exchange round: up to `retries` re-attempts spaced
  /// backoff0 * 2^attempt apart. `backoff0` <= 0 derives it from the
  /// round's period (period / 8). Applies to rounds scheduled afterwards.
  void set_exchange_retry(std::size_t retries, double backoff0 = 0.0) noexcept {
    exchange_retries_ = retries;
    exchange_backoff0_ = backoff0;
  }
  /// Rounds that found the gate blocked (each deferral counts once).
  [[nodiscard]] std::size_t exchange_drops() const noexcept {
    return exchange_drops_;
  }
  /// Retry attempts actually scheduled.
  [[nodiscard]] std::size_t exchange_retries() const noexcept {
    return exchange_retry_count_;
  }
  /// Rounds abandoned after the retry budget ran out.
  [[nodiscard]] std::size_t exchange_timeouts() const noexcept {
    return exchange_timeouts_;
  }

  /// Number of schedule()/schedule_exchange()/schedule_degradation()
  /// registrations.
  [[nodiscard]] std::size_t scheduled() const noexcept { return scheduled_; }
  /// Total agent steps executed through this runtime.
  [[nodiscard]] std::size_t steps_run() const noexcept { return steps_; }
  /// Total knowledge items imported through scheduled exchanges.
  [[nodiscard]] std::size_t items_exchanged() const noexcept {
    return exchanged_;
  }

  // -- Checkpoint seam (sa::ckpt) -------------------------------------------
  //
  // Every stream the runtime schedules is tagged (sa.rt.* x registration
  // ordinal), so a replayed world that repeats the same schedule*() calls
  // exports identical tags; exchange-retry one-shots carry their attempt
  // number as payload. The counters below are the runtime's own section.

  /// Runtime counters that feed bench metrics and /status.
  struct State {
    std::uint64_t steps = 0;
    std::uint64_t exchanged = 0;
    std::uint64_t exchange_drops = 0;
    std::uint64_t exchange_retries = 0;
    std::uint64_t exchange_timeouts = 0;
    bool exchange_blocked = false;
  };
  [[nodiscard]] State export_state() const noexcept {
    State st;
    st.steps = steps_;
    st.exchanged = exchanged_;
    st.exchange_drops = exchange_drops_;
    st.exchange_retries = exchange_retry_count_;
    st.exchange_timeouts = exchange_timeouts_;
    st.exchange_blocked = exchange_blocked_;
    return st;
  }

 private:
  /// Per-stream profiling/tracing handles resolved at schedule time.
  struct StreamInstruments {
    sim::MetricsRegistry::MetricId count = 0;
    sim::MetricsRegistry::MetricId ms = 0;
    sim::SubjectId subject = 0;
    sim::NameId name = 0;
  };
  StreamInstruments instrument(const std::string& name,
                               const char* span_name);

  /// One scheduled exchange mesh. Rounds live in the runtime (not in the
  /// periodic closure) so retry one-shots — which can outlive any single
  /// firing — reference stable storage by index.
  struct ExchangeRound {
    std::vector<SelfAwareAgent*> agents;
    StreamInstruments si;
    double period = 0.0;
    std::size_t retries = 0;
    double backoff0 = 0.0;
  };

  /// One exchange round (attempt 0) or retry (attempt > 0): imports when
  /// the gate is open, otherwise defers with exponential backoff until the
  /// retry budget is spent.
  void run_exchange(std::size_t round, std::size_t attempt);
  void schedule_exchange_retry(std::size_t round, std::size_t attempt);

  sim::Engine& engine_;
  sim::MetricsRegistry* metrics_ = nullptr;
  sim::Tracer* tracer_ = nullptr;
  std::size_t scheduled_ = 0;
  std::size_t steps_ = 0;
  std::size_t exchanged_ = 0;

  std::vector<ExchangeRound> exchange_rounds_;
  bool exchange_blocked_ = false;
  std::size_t exchange_retries_ = 3;
  double exchange_backoff0_ = 0.0;  ///< <= 0: period / 8
  std::size_t exchange_drops_ = 0;
  std::size_t exchange_retry_count_ = 0;
  std::size_t exchange_timeouts_ = 0;
};

}  // namespace sa::core

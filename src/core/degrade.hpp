// Graceful degradation of self-awareness levels.
//
// The paper (Section VII) argues a self-aware system should trade awareness
// for robustness under duress: when its own machinery is too slow, its
// knowledge too stale, or its substrate visibly faulting, it can step down
// to a cheaper configuration and still act — and step back up when the
// pressure lifts. DegradationPolicy implements that as a four-rung ladder
// over SelfAwareAgent::set_active_levels():
//
//   Meta      — full constructed level set (normal operation)
//   Goal      — constructed set minus Meta (drop self-monitoring overhead)
//   Stimulus  — stimulus awareness only (reflexive, models paused)
//   Reactive  — no awareness processes; raw readings mirror into the KB
//
// Triggers are breaches of: meta.profile.step_ms (own-loop latency — the
// meta level watching itself), "fault.active" (injected fault pressure,
// fed by fault::feed_agent), and the stale fraction of watched KB keys
// (the stale-knowledge detector over KnowledgeItem TTLs). A breach must
// persist for `breach_updates` consecutive updates to step down one rung;
// `recover_updates` clean updates step back up. Each transition emits an
// Explanation into the agent's Explainer citing the triggering trace id.
//
// Determinism: step_ms_breach defaults to +inf because wall-clock
// latency is nondeterministic. E13 and the E15 city set no watch_keys and
// trigger on fault.active alone; staleness is a deterministic trigger too
// (sim-time TTLs) for callers that watch keys.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/agent.hpp"
#include "sim/trace.hpp"

namespace sa::core {

/// Meta-level controller stepping an agent down/up the awareness ladder.
class DegradationPolicy {
 public:
  /// The ladder rungs, healthiest first.
  enum class Mode : std::uint8_t {
    Meta = 0,      ///< full constructed level set
    Goal = 1,      ///< constructed set minus Meta
    Stimulus = 2,  ///< stimulus awareness only
    Reactive = 3,  ///< no awareness processes at all
  };

  struct Params {
    /// Breach when meta.profile.step_ms exceeds this (own-loop latency).
    /// Default +inf: wall-clock is nondeterministic, so opt in explicitly.
    double step_ms_breach = std::numeric_limits<double>::infinity();
    /// Breach when the KB's "fault.active" count reaches this.
    double fault_active_breach = 1.0;
    /// Breach when > this fraction of `watch_keys` is stale.
    double stale_fraction_breach = 0.5;
    /// TTL stamped onto `watch_keys` items via KB::set_default_ttl at
    /// attach; <= 0 leaves the KB default untouched (staleness disabled
    /// unless producers set TTLs themselves).
    double knowledge_ttl = 0.0;
    /// KB keys whose freshness the stale-knowledge detector watches.
    std::vector<std::string> watch_keys;
    /// Consecutive breached updates required to step down one rung.
    std::size_t breach_updates = 2;
    /// Consecutive clean updates required to step back up one rung.
    std::size_t recover_updates = 4;
  };

  DegradationPolicy(SelfAwareAgent& agent, Params p);

  /// One monitoring tick at sim time `t`. Evaluates the triggers, steps
  /// the ladder at most one rung, applies the rung's level set to the
  /// agent, and (on a transition) records an Explanation carrying
  /// `trace` as the citing trace id. Call at control cadence — e.g. via
  /// Runtime::schedule_degradation().
  void update(double t, sim::TraceId trace = 0);

  [[nodiscard]] static const char* mode_name(Mode m) noexcept;

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] std::size_t rung() const noexcept {
    return static_cast<std::size_t>(mode_);
  }
  [[nodiscard]] std::size_t degradations() const noexcept {
    return degradations_;
  }
  [[nodiscard]] std::size_t recoveries() const noexcept { return recoveries_; }
  /// Total sim time spent below Mode::Meta (degraded-mode dwell).
  [[nodiscard]] double degraded_dwell() const noexcept { return dwell_; }
  [[nodiscard]] SelfAwareAgent& agent() noexcept { return agent_; }
  /// Human-readable trigger behind the most recent transition ("" before
  /// the first one).
  [[nodiscard]] const std::string& last_trigger() const noexcept {
    return last_trigger_;
  }
  [[nodiscard]] const Params& params() const noexcept { return params_; }

  /// Checkpoint seam (sa::ckpt): ladder position, streaks, and counters.
  /// Params are not part of the state — they come from the rebuilt world.
  struct State {
    Mode mode = Mode::Meta;
    std::uint64_t breach_streak = 0;
    std::uint64_t clean_streak = 0;
    std::uint64_t degradations = 0;
    std::uint64_t recoveries = 0;
    double dwell = 0.0;
    double last_t = 0.0;
    bool seen_update = false;
    std::string last_trigger;
  };
  [[nodiscard]] State export_state() const;

 private:
  [[nodiscard]] LevelSet level_set_for(Mode m) const;
  void transition(double t, Mode to, const std::string& why,
                  sim::TraceId trace);

  SelfAwareAgent& agent_;
  Params params_;
  Mode mode_ = Mode::Meta;
  std::size_t breach_streak_ = 0;
  std::size_t clean_streak_ = 0;
  std::size_t degradations_ = 0;
  std::size_t recoveries_ = 0;
  double dwell_ = 0.0;
  double last_t_ = 0.0;
  bool seen_update_ = false;
  std::string last_trigger_;
};

}  // namespace sa::core

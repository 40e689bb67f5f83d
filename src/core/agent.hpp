// SelfAwareAgent: the framework facade.
//
// Composes the reference architecture of Lewis et al. [41] into one object:
// sensors feed an attention-filtered observe phase; awareness processes
// (one per enabled level) derive knowledge; a policy decides; actuators
// express the decision; the explainer records why. The set of enabled
// levels is a constructor-time capability choice ("full-stack" vs minimal —
// paper Section IV), which experiment E5 ablates.
//
// Typical use:
//
//   AgentConfig cfg;                      // defaults to LevelSet::full()
//   SelfAwareAgent agent("mapper", cfg);
//   agent.add_sensor("load", [&]{ return platform.load(); });
//   agent.add_action("freq_up",   [&]{ platform.step_freq(+1); });
//   agent.add_action("freq_down", [&]{ platform.step_freq(-1); });
//   agent.goals().add_objective({"throughput", utility::rising(0, 100), 2.0});
//   agent.goals().add_objective({"power", utility::falling(1, 10), 1.0});
//   agent.set_goal_metrics({"throughput", "power"});
//   agent.set_policy(std::make_unique<BanditPolicy>(
//       std::make_unique<learn::Ucb1>(2)));
//   ...
//   auto d = agent.step(t);               // one ODA cycle
//   agent.reward(agent.current_utility());
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/attention.hpp"
#include "core/explain.hpp"
#include "core/goal.hpp"
#include "core/goal_awareness.hpp"
#include "core/interaction.hpp"
#include "core/knowledge.hpp"
#include "core/levels.hpp"
#include "core/meta.hpp"
#include "core/policy.hpp"
#include "core/stimulus.hpp"
#include "core/time_awareness.hpp"
#include "sim/rng.hpp"
#include "sim/telemetry.hpp"

namespace sa::core {

/// Construction-time configuration of an agent's self-awareness machinery.
struct AgentConfig {
  LevelSet levels = LevelSet::full();
  std::uint64_t seed = 1;

  /// Attention: maximum sensors sampled per step; SIZE_MAX = no budget.
  std::size_t attention_budget = static_cast<std::size_t>(-1);
  AttentionManager::Strategy attention_strategy =
      AttentionManager::Strategy::All;

  TimeAwareness::Params time{};
  MetaSelfAwareness::Params meta{};

  /// Optional telemetry bus: the agent emits one kObservation event per
  /// step (value = signals sampled, detail = their names) and one kDecision
  /// event per decision (value = action index, detail = action + rationale).
  /// Non-owning; must outlive the agent. Null disables emission.
  sim::TelemetryBus* telemetry = nullptr;

  /// Optional decision-provenance tracer: the agent emits spans for each
  /// ODA phase (step > observe/knowledge/decide/act, plus an outcome span
  /// when reward() settles a decision) and flow links chaining
  /// observation -> knowledge -> decision -> action -> outcome. Decisions,
  /// stimulus events and explanations carry the assigned TraceIds, so
  /// Explanation::render() cites trace records. Non-owning; must outlive
  /// the agent. Null disables tracing.
  sim::Tracer* tracer = nullptr;
};

/// One self-aware entity. Not thread-safe; one agent per logical entity.
/// Its processes and callbacks hold references into it, so it is neither
/// copied nor moved.
class SelfAwareAgent {
 public:
  explicit SelfAwareAgent(std::string id, AgentConfig cfg = {});
  SelfAwareAgent(const SelfAwareAgent&) = delete;
  SelfAwareAgent& operator=(const SelfAwareAgent&) = delete;

  // -- Wiring ---------------------------------------------------------------
  /// Registers a named sensor; `read` is pulled during the observe phase.
  void add_sensor(const std::string& name, std::function<double()> read);
  /// Registers a named action with its actuator.
  void add_action(const std::string& name, std::function<void()> act);
  /// Installs the decision policy (replaces any previous one).
  void set_policy(std::unique_ptr<Policy> policy);
  /// Declares which KB keys carry the goal metrics (enables goal awareness
  /// evaluation over them; requires Level::Goal). A later call replaces the
  /// goal process, and the meta level watches the replacement.
  void set_goal_metrics(std::vector<std::string> metrics);

  // -- The loop -------------------------------------------------------------
  /// Runs one Observe-Decide-Act cycle at time `t`. Returns the decision
  /// (action_index == SIZE_MAX and empty action if no policy/actions).
  Decision step(double t);
  /// Routes reward for the last decision to the (learning) policy.
  void reward(double r);
  /// Reports an interaction outcome to interaction awareness (no-op if the
  /// level is disabled).
  void record_interaction(const std::string& peer, bool success,
                          double value = 0.0);

  // -- Introspection --------------------------------------------------------
  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] const LevelSet& levels() const noexcept {
    return cfg_.levels;
  }

  // -- Graceful degradation -------------------------------------------------
  /// Restricts which constructed levels actually run each step (clamped to
  /// the constructor-time set — capabilities never grow at run time). The
  /// processes keep their state while inactive and resume on
  /// reactivation; with no stimulus level active, raw readings are
  /// mirrored straight into the KB (the reactive baseline). Driven by
  /// core::DegradationPolicy; harmless to call directly.
  void set_active_levels(LevelSet levels);
  [[nodiscard]] const LevelSet& active_levels() const noexcept {
    return active_levels_;
  }
  /// Sensor reads that returned NaN (a dropped-out sensor, the fault
  /// surface) and were skipped: the key simply stops updating and its
  /// knowledge ages out — observe gaps trip the stale-knowledge detector.
  [[nodiscard]] std::size_t sensor_gaps() const noexcept {
    return sensor_gaps_;
  }
  [[nodiscard]] KnowledgeBase& knowledge() noexcept { return kb_; }
  [[nodiscard]] const KnowledgeBase& knowledge() const noexcept { return kb_; }
  [[nodiscard]] GoalModel& goals() noexcept { return goals_; }
  [[nodiscard]] Explainer& explainer() noexcept { return explainer_; }
  [[nodiscard]] AttentionManager& attention() noexcept { return attention_; }
  [[nodiscard]] sim::Rng& rng() noexcept { return rng_; }
  /// Utility at the last step (0 if goal awareness is disabled/unset).
  [[nodiscard]] double current_utility() const;
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] const std::vector<std::string>& actions() const noexcept {
    return action_names_;
  }

  /// Direct access to the level processes (null when disabled).
  [[nodiscard]] StimulusAwareness* stimulus() noexcept {
    return stimulus_.get();
  }
  [[nodiscard]] InteractionAwareness* interaction() noexcept {
    return interaction_.get();
  }
  [[nodiscard]] const InteractionAwareness* interaction() const noexcept {
    return interaction_.get();
  }
  [[nodiscard]] TimeAwareness* time_awareness() noexcept {
    return time_.get();
  }
  [[nodiscard]] const TimeAwareness* time_awareness() const noexcept {
    return time_.get();
  }
  [[nodiscard]] GoalAwareness* goal_awareness() noexcept {
    return goal_aware_.get();
  }
  [[nodiscard]] MetaSelfAwareness* meta() noexcept { return meta_.get(); }
  [[nodiscard]] Policy* policy() noexcept { return policy_.get(); }

  /// Self-description: a human-readable report of what this agent *is* —
  /// its capability levels, sensors, actions, policy, goal structure and
  /// the current self-assessed quality of each awareness process. The
  /// static counterpart of Explainer's per-decision "why" (the paper's
  /// self-explanation covers both: what I am, and why I acted).
  [[nodiscard]] std::string describe() const;

 private:
  /// Samples the attended sensors into obs_.
  void observe();
  /// Writes this step's raw readings into the KB (stimulus awareness
  /// off or paused), by cached id.
  void mirror_readings(double t);
  void run_processes(double t);
  void explain_decision(double t, const Decision& d,
                        std::vector<sim::TraceId> cited);

  std::string id_;
  AgentConfig cfg_;
  LevelSet active_levels_;  ///< subset of cfg_.levels running right now
  sim::Rng rng_;
  KnowledgeBase kb_;
  GoalModel goals_;
  Explainer explainer_;
  AttentionManager attention_;

  struct Sensor {
    std::function<double()> read;
    std::size_t signal;  ///< slot in attention_.table()
  };
  std::vector<Sensor> sensors_;
  std::vector<char> attended_;  ///< observe() scratch, by slot
  /// This step's readings over attention_.table(), refilled in place.
  Observation obs_{attention_.table()};
  /// The raw-reading mirror's state, built on its first use: cached KB ids
  /// by slot and the "sensor" provenance tag.
  std::vector<KnowledgeBase::KeyId> mirror_keys_;
  KnowledgeBase::SourceId mirror_src_ = 0;
  std::vector<std::string> action_names_;
  std::vector<std::function<void()>> actuators_;
  std::unique_ptr<Policy> policy_;

  std::unique_ptr<StimulusAwareness> stimulus_;
  std::unique_ptr<InteractionAwareness> interaction_;
  std::unique_ptr<TimeAwareness> time_;
  std::unique_ptr<GoalAwareness> goal_aware_;
  std::unique_ptr<MetaSelfAwareness> meta_;

  sim::SubjectId subject_ = 0;  ///< interned id_ when cfg_.telemetry is set

  // Tracing state (meaningful only when cfg_.tracer is set). Names are
  // interned once at construction; ids are stamped per step.
  sim::SubjectId trace_subject_ = 0;  ///< id_ on the tracer's bus
  sim::NameId n_step_ = 0, n_observe_ = 0, n_knowledge_ = 0, n_decide_ = 0,
              n_act_ = 0, n_outcome_ = 0;
  sim::NameId n_flow_obs_ = 0, n_flow_stim_ = 0, n_flow_decision_ = 0;
  sim::NameId k_signals_ = 0, k_action_ = 0, k_reward_ = 0;
  double last_step_t_ = 0.0;          ///< sim time of the latest step()
  sim::TraceId pending_outcome_ = 0;  ///< decision chain awaiting reward()

  std::size_t steps_ = 0;
  std::size_t sensor_gaps_ = 0;  ///< NaN sensor reads skipped
};

}  // namespace sa::core

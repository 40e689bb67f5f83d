// Run-time managers for the multicore platform.
//
// Three variants realise the comparison at the heart of experiments E1/E5:
//
//   Static    — the design-time baseline: one configuration chosen up front
//               and never revisited (the classic approach the paper argues
//               is no longer sufficient, Section I);
//   Reactive  — threshold rules over current readings only; adaptive but
//               model-free, i.e. stimulus-awareness without history, goals
//               as explicit objects, or meta-reasoning;
//   SelfAware — a full SelfAwareAgent whose action space is the cross
//               product of DVFS level and mapping policy, learning action
//               values against an explicit multi-objective GoalModel, with
//               drift-triggered resets from the meta level.
//
// All variants sense the same harvested epoch statistics and actuate the
// same knobs, so any performance difference is attributable to the
// awareness machinery.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/agent.hpp"
#include "multicore/platform.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace sa::multicore {

/// One selectable platform configuration.
struct ManagerAction {
  std::size_t freq_level = 0;
  Mapping mapping = Mapping::Balanced;
  std::string name;
};

/// Default action space: {min, mid, max frequency} × all mappings.
[[nodiscard]] std::vector<ManagerAction> default_actions(
    const Platform& platform);

class Manager {
 public:
  enum class Variant { Static, Reactive, SelfAware };

  struct Params {
    Variant variant = Variant::SelfAware;
    core::LevelSet levels = core::LevelSet::full();  ///< SelfAware only
    double epoch_s = 0.5;          ///< control period
    double power_cap_w = 18.0;     ///< hard constraint bound
    std::size_t static_action = 3; ///< Static's fixed choice: f-mid/balanced
    std::uint64_t seed = 7;
    /// Optional telemetry bus: wired into the agent (and the platform via
    /// the constructor). Non-owning; must outlive the manager.
    sim::TelemetryBus* telemetry = nullptr;
    /// Optional tracer: the agent emits ODA spans + flow chains; the
    /// manager emits one epoch-length span per control epoch under
    /// subject "multicore.manager". Non-owning; must outlive the manager.
    sim::Tracer* tracer = nullptr;
  };

  Manager(Platform& platform, Params params);

  /// Advances the platform one epoch, harvests stats, runs one control
  /// decision, applies it, and feeds reward back. Returns epoch utility.
  double run_epoch();

  /// Event-driven equivalent of calling run_epoch() in a loop: schedules
  /// one control epoch every `period` (order 1 = control; <= 0 defaults to
  /// epoch_s). Each firing steps the platform for the whole period itself.
  /// `on_epoch`, if set, receives each
  /// epoch's utility. The trajectory is identical to the synchronous loop.
  void bind(sim::Engine& engine, double period = 0.0,
            std::function<void(double)> on_epoch = {});

  [[nodiscard]] const EpochStats& last_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] core::SelfAwareAgent& agent() noexcept { return *agent_; }
  [[nodiscard]] const std::vector<ManagerAction>& actions() const noexcept {
    return actions_;
  }

  // Whole-run aggregates (across every epoch so far).
  [[nodiscard]] const sim::RunningStats& utility() const noexcept {
    return utility_;
  }
  [[nodiscard]] const sim::RunningStats& power() const noexcept {
    return power_;
  }
  [[nodiscard]] const sim::RunningStats& latency() const noexcept {
    return latency_;
  }
  [[nodiscard]] const sim::RunningStats& throughput() const noexcept {
    return throughput_;
  }
  /// Fraction of epochs whose mean power exceeded the cap.
  [[nodiscard]] double cap_violation_rate() const noexcept {
    return epochs_ ? static_cast<double>(cap_violations_) /
                         static_cast<double>(epochs_)
                   : 0.0;
  }

 private:
  void build_agent();
  /// run_epoch() generalised to an arbitrary epoch length (bind() uses the
  /// scheduling period so engine time and platform time stay aligned).
  double run_epoch_for(double secs);
  void apply(const ManagerAction& a);
  /// Writes the predicted epoch metrics into `out` (by goal metric id) if
  /// configuration `a` ran against the currently sensed workload (the
  /// agent's self-model).
  void predict(const ManagerAction& a, const core::KnowledgeBase& kb,
               std::span<double> out) const;

  Platform& platform_;
  Params p_;
  std::vector<ManagerAction> actions_;
  std::unique_ptr<core::SelfAwareAgent> agent_;
  EpochStats stats_;

  sim::RunningStats utility_, power_, latency_, throughput_;
  std::size_t epochs_ = 0, cap_violations_ = 0;
  sim::SubjectId trace_subject_ = 0;  ///< "multicore.manager" when tracing
  sim::NameId n_epoch_ = 0, k_utility_ = 0, k_power_ = 0;
};

}  // namespace sa::multicore

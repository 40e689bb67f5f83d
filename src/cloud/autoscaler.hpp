// Autoscalers for the volunteer cloud.
//
// Three variants mirror the multicore managers (experiment E3):
//
//   Static    — enrol a fixed number of nodes, chosen from the design-time
//               list, forever;
//   Reactive  — threshold scaling on the last epoch's SLA/utilisation;
//   SelfAware — a SelfAwareAgent that forecasts demand (time awareness),
//               learns per-node reliability by interacting with them
//               (interaction awareness), and picks the scaling action whose
//               *predicted* outcome maximises the goal model
//               (self-prediction, Kounev et al. — realised here with
//               ModelBasedPolicy).
//
// All variants pay the same cost model and see the same demand stream.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cloud/cluster.hpp"
#include "core/agent.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace sa::cloud {

class Autoscaler {
 public:
  enum class Variant { Static, Reactive, SelfAware };

  /// SLA an epoch must reach not to count as a violation.
  static constexpr double kSlaTarget = 0.95;

  struct Params {
    Variant variant = Variant::SelfAware;
    core::LevelSet levels = core::LevelSet::full();  ///< SelfAware only
    std::size_t initial_nodes = 12;
    /// Epochs per demand season (e.g. the diurnal cycle); feeds the
    /// Holt-Winters member of time awareness. 0 disables seasonality.
    std::size_t seasonal_epochs = 60;
    std::uint64_t seed = 23;
    /// Optional telemetry bus: wired into the agent (and the cluster via
    /// the constructor). Non-owning; must outlive the autoscaler.
    sim::TelemetryBus* telemetry = nullptr;
    /// Optional tracer: the agent emits ODA spans + flow chains; the
    /// autoscaler emits one epoch-length span per control epoch under
    /// subject "cloud.autoscaler". Non-owning; must outlive the autoscaler.
    sim::Tracer* tracer = nullptr;
  };

  Autoscaler(Cluster& cluster, DemandModel& demand, Params p);

  /// One full control epoch: decide enrolment, run the cluster, learn.
  /// Returns the epoch record.
  CloudEpoch run_epoch();

  /// Event-driven equivalent of calling run_epoch() in a loop: schedules
  /// one control epoch every `period` (order 1 = control; <= 0 defaults to
  /// the cluster's epoch length, keeping cluster time aligned with engine
  /// time). The trajectory is identical to the synchronous loop.
  void bind(sim::Engine& engine, double period = 0.0,
            std::function<void(const CloudEpoch&)> on_epoch = {});

  [[nodiscard]] core::SelfAwareAgent& agent() noexcept { return *agent_; }
  [[nodiscard]] std::size_t target() const noexcept { return target_; }
  [[nodiscard]] static const char* variant_name(Variant v) noexcept;

  // Whole-run aggregates.
  [[nodiscard]] const sim::RunningStats& sla() const noexcept { return sla_; }
  [[nodiscard]] const sim::RunningStats& cost() const noexcept {
    return cost_;
  }
  [[nodiscard]] const sim::RunningStats& utility() const noexcept {
    return utility_;
  }
  [[nodiscard]] double sla_violation_rate() const noexcept {
    return epochs_ ? static_cast<double>(violations_) /
                         static_cast<double>(epochs_)
                   : 0.0;
  }

 private:
  void build_agent();
  /// Fills order_ with the node enrolment order: learned reliability
  /// ranking for SelfAware, design-time list order otherwise. Interaction
  /// estimates change only after an epoch, so run_epoch ranks once and
  /// every prediction and the enrolment share the order.
  void rank_nodes();
  /// Writes the predicted epoch metrics into `out` (by goal metric id) if
  /// the enrolment target were `k`.
  void predict(std::size_t k, std::span<double> out) const;

  Cluster& cluster_;
  DemandModel& demand_;
  Params p_;
  std::unique_ptr<core::SelfAwareAgent> agent_;

  std::size_t target_;
  CloudEpoch last_;
  std::vector<std::size_t> order_;  ///< this epoch's enrolment order
  std::vector<double> score_;       ///< rank_nodes() scratch, by node
  static constexpr int kDeltas[] = {-3, -1, 0, 1, 3};

  sim::RunningStats sla_, cost_, utility_;
  std::size_t epochs_ = 0, violations_ = 0;
  sim::SubjectId trace_subject_ = 0;  ///< "cloud.autoscaler" when tracing
  sim::NameId n_epoch_ = 0, k_sla_ = 0, k_cost_ = 0;
};

}  // namespace sa::cloud

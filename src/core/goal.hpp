// Goal modelling: multi-objective utilities, constraints, run-time change.
//
// The paper's Introduction frames evaluation of system behaviour as
// "inherently multi-objective", with stakeholder concerns in trade-off or
// conflict, and argues the analysis must move to run time. The GoalModel is
// the framework's explicit representation of those concerns: a weighted set
// of objectives (each mapping a raw metric to a [0,1] utility) plus hard and
// soft constraints. Weights and constraints are mutable at run time —
// goal-awareness means noticing and responding when they change.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace sa::core {

/// Named raw metrics (e.g. {"throughput": 120.4, "power": 9.3}).
using MetricMap = std::map<std::string, double>;

/// Maps a raw metric value to a utility in [0,1].
using UtilityFn = std::function<double(double)>;

/// Factory helpers for common utility shapes.
namespace utility {
/// Rises linearly from 0 at `lo` to 1 at `hi` (clamped). "More is better."
UtilityFn rising(double lo, double hi);
/// Falls linearly from 1 at `lo` to 0 at `hi` (clamped). "Less is better."
UtilityFn falling(double lo, double hi);
/// Peaks at `target`, decaying linearly to 0 at distance `tolerance`.
UtilityFn target(double target, double tolerance);
}  // namespace utility

/// One stakeholder concern.
struct Objective {
  std::string metric;  ///< key into the MetricMap
  UtilityFn fn;        ///< raw metric → [0,1]
  double weight = 1.0; ///< relative importance (normalised internally)
};

/// A boolean requirement over the metric map.
struct Constraint {
  std::string name;
  std::function<bool(const MetricMap&)> satisfied;
  bool hard = true;  ///< hard: violation zeroes utility; soft: penalty only
  double penalty = 0.25;  ///< utility subtracted per soft violation
};

/// The agent's explicit, run-time-mutable goal representation.
class GoalModel {
 public:
  /// Adds an objective; returns its index (usable with set_weight).
  std::size_t add_objective(Objective o);
  void add_constraint(Constraint c);

  /// Re-weights the objective over `metric` (run-time goal change).
  /// Returns false if no objective uses that metric.
  bool set_weight(const std::string& metric, double weight);

  /// Scalarised utility in [0,1]: weighted mean of objective utilities,
  /// zeroed by any violated hard constraint, reduced by soft penalties.
  [[nodiscard]] double utility(const MetricMap& m) const;
  /// Utility ignoring constraints (for diagnosis).
  [[nodiscard]] double raw_utility(const MetricMap& m) const;
  /// Names of constraints violated by `m`.
  [[nodiscard]] std::vector<std::string> violations(const MetricMap& m) const;
  [[nodiscard]] bool feasible(const MetricMap& m) const;

  /// Per-objective utilities, for explanation ("power contributed 0.31").
  [[nodiscard]] std::vector<std::pair<std::string, double>> breakdown(
      const MetricMap& m) const;

  [[nodiscard]] std::size_t objectives() const noexcept {
    return objectives_.size();
  }
  [[nodiscard]] std::size_t constraints() const noexcept {
    return constraints_.size();
  }

  /// Pareto dominance on the raw objective-utility vectors: true iff `a` is
  /// at least as good on all objectives and strictly better on one.
  [[nodiscard]] bool dominates(const MetricMap& a, const MetricMap& b) const;

 private:
  std::vector<Objective> objectives_;
  std::vector<Constraint> constraints_;
};

}  // namespace sa::core

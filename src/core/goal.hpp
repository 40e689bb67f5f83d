// Goal modelling: multi-objective utilities, constraints, run-time change.
//
// The paper's Introduction frames evaluation of system behaviour as
// "inherently multi-objective", with stakeholder concerns in trade-off or
// conflict, and argues the analysis must move to run time. The GoalModel is
// the framework's explicit representation of those concerns: a weighted set
// of objectives (each mapping a raw metric to a [0,1] utility) plus hard
// constraints. Weights and constraints are mutable at run time —
// goal-awareness means noticing and responding when they change.
//
// The model is plain data keyed by metric id. Each metric name is interned
// once, when an objective or a constraint first names it; the model then
// evaluates a vector of metric values indexed by that id, in which NaN (or
// a position past the end) means "absent".
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sa::core {

/// A metric's index in its goal model's metric table.
using MetricId = std::uint32_t;

/// The value of an absent metric.
inline constexpr double kAbsent = std::numeric_limits<double>::quiet_NaN();

/// Maps a raw metric value to a utility in [0,1]: a clamped linear ramp.
struct UtilityFn {
  enum class Shape : std::uint8_t { Rising, Falling, Target };
  Shape shape = Shape::Rising;
  double a = 0.0;  ///< Rising/Falling: lo; Target: the target
  double b = 1.0;  ///< Rising/Falling: hi; Target: the tolerance
  [[nodiscard]] double operator()(double x) const;
};

/// Factory helpers for the utility shapes.
namespace utility {
/// Rises linearly from 0 at `lo` to 1 at `hi` (clamped). "More is better."
constexpr UtilityFn rising(double lo, double hi) {
  return {UtilityFn::Shape::Rising, lo, hi};
}
/// Falls linearly from 1 at `lo` to 0 at `hi` (clamped). "Less is better."
constexpr UtilityFn falling(double lo, double hi) {
  return {UtilityFn::Shape::Falling, lo, hi};
}
/// Peaks at `target`, decaying linearly to 0 at distance `tolerance`.
constexpr UtilityFn target(double target, double tolerance) {
  return {UtilityFn::Shape::Target, target, tolerance};
}
}  // namespace utility

/// One stakeholder concern.
struct Objective {
  MetricId metric = 0;  ///< index into the metric values
  UtilityFn fn;         ///< raw metric → [0,1]
  double weight = 1.0;  ///< relative importance (normalised internally)
};

/// A hard upper bound on one metric; an absent metric satisfies it, and
/// a violation zeroes the utility.
struct Constraint {
  MetricId metric = 0;
  double at_most = 0.0;

  [[nodiscard]] bool satisfied(std::span<const double> m) const {
    return !(metric < m.size() && m[metric] > at_most);  // NaN compares false
  }
};

/// The agent's explicit, run-time-mutable goal representation.
class GoalModel {
 public:
  /// Adds an objective over `metric` (interned on first use) and returns
  /// the metric's id.
  MetricId add_objective(std::string_view metric, UtilityFn fn,
                         double weight = 1.0);
  /// Bounds `metric` (interned on first use) by `at_most`.
  void add_constraint(std::string_view metric, double at_most);

  /// Re-weights the objective over `metric` (run-time goal change).
  /// Returns false if no objective uses that metric.
  bool set_weight(std::string_view metric, double weight);

  /// Scalarised utility in [0,1]: weighted mean of objective utilities,
  /// zeroed by any violated constraint.
  [[nodiscard]] double utility(std::span<const double> m) const;
  /// Number of constraints violated by `m`.
  [[nodiscard]] std::size_t violated(std::span<const double> m) const;
  [[nodiscard]] bool feasible(std::span<const double> m) const {
    return violated(m) == 0;
  }

  /// Utility of objective `i` alone, for explanation ("power contributed
  /// 0.31"); 0 when its metric is absent from `m`.
  [[nodiscard]] double objective_utility(std::size_t i,
                                         std::span<const double> m) const;

  /// The metric table: names by id, in interning order.
  [[nodiscard]] std::size_t metrics() const noexcept {
    return metrics_.size();
  }
  [[nodiscard]] const std::string& metric_name(MetricId id) const {
    return metrics_[id];
  }
  [[nodiscard]] std::size_t objectives() const noexcept {
    return objectives_.size();
  }
  /// The metric objective `i` reads.
  [[nodiscard]] MetricId objective_metric(std::size_t i) const {
    return objectives_[i].metric;
  }
  [[nodiscard]] std::size_t constraints() const noexcept {
    return constraints_.size();
  }

  /// Pareto dominance on the raw objective-utility vectors: true iff `a` is
  /// at least as good on all objectives and strictly better on one.
  [[nodiscard]] bool dominates(std::span<const double> a,
                               std::span<const double> b) const;

 private:
  MetricId intern(std::string_view metric);

  std::vector<std::string> metrics_;
  std::vector<Objective> objectives_;
  std::vector<Constraint> constraints_;
};

}  // namespace sa::core

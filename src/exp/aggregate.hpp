// Per-variant metric aggregation for experiment grids.
//
// Collects the per-seed metric values of one variant and summarises each
// metric as mean / stddev / 95% confidence interval / min / max. NaN
// inputs are rejected loudly (a NaN metric always indicates a broken
// task, and silently propagating it would poison every summary).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "exp/grid.hpp"
#include "sim/stats.hpp"

namespace sa::exp {

struct MetricSummary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;  ///< half-width of the 95% CI (Student-t), 0 for n<2
  double min = 0.0;
  double max = 0.0;
};

class Aggregate {
 public:
  /// Adds one sample of one metric. Throws std::invalid_argument on NaN.
  void add(const std::string& metric, double value);
  /// Adds every metric of one task result.
  void add(const Metrics& metrics);

  /// Metric names in first-seen order.
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return order_;
  }
  /// Raw accumulator; throws std::out_of_range on an unknown metric.
  [[nodiscard]] const sim::RunningStats& stats(const std::string& metric) const;
  [[nodiscard]] MetricSummary summary(const std::string& metric) const;

  /// Two-sided 95% Student-t critical value for `df` degrees of freedom
  /// (exact table for df <= 30, 1.960 asymptote beyond).
  [[nodiscard]] static double t_critical_95(std::size_t df) noexcept;

 private:
  std::vector<std::string> order_;
  std::map<std::string, sim::RunningStats> stats_;
};

}  // namespace sa::exp

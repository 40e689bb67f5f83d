#include "exp/aggregate.hpp"

#include <cmath>
#include <stdexcept>

namespace sa::exp {

void Aggregate::add(const std::string& metric, double value) {
  if (std::isnan(value)) {
    throw std::invalid_argument("Aggregate::add: NaN value for metric '" +
                                metric + "'");
  }
  const auto [it, inserted] = stats_.try_emplace(metric);
  if (inserted) order_.push_back(metric);
  it->second.add(value);
}

void Aggregate::add(const Metrics& metrics) {
  for (const auto& [name, value] : metrics) add(name, value);
}

const sim::RunningStats& Aggregate::stats(const std::string& metric) const {
  const auto it = stats_.find(metric);
  if (it == stats_.end()) {
    throw std::out_of_range("Aggregate::stats: unknown metric '" + metric +
                            "'");
  }
  return it->second;
}

MetricSummary Aggregate::summary(const std::string& metric) const {
  const auto& s = stats(metric);
  MetricSummary out;
  out.n = s.count();
  out.mean = s.mean();
  out.stddev = s.stddev();
  out.min = s.min();
  out.max = s.max();
  if (out.n > 1) {
    out.ci95 = t_critical_95(out.n - 1) * out.stddev /
               std::sqrt(static_cast<double>(out.n));
  }
  return out;
}

double Aggregate::t_critical_95(std::size_t df) noexcept {
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= std::size(kTable)) return kTable[df - 1];
  return 1.960;
}

}  // namespace sa::exp

#include "core/goal.hpp"

#include <algorithm>
#include <cmath>

namespace sa::core {

namespace utility {

UtilityFn rising(double lo, double hi) {
  return [lo, hi](double x) {
    if (hi <= lo) return x >= hi ? 1.0 : 0.0;
    return std::clamp((x - lo) / (hi - lo), 0.0, 1.0);
  };
}

UtilityFn falling(double lo, double hi) {
  return [lo, hi](double x) {
    if (hi <= lo) return x <= lo ? 1.0 : 0.0;
    return std::clamp((hi - x) / (hi - lo), 0.0, 1.0);
  };
}

UtilityFn target(double t, double tolerance) {
  return [t, tolerance](double x) {
    if (tolerance <= 0.0) return x == t ? 1.0 : 0.0;
    return std::clamp(1.0 - std::fabs(x - t) / tolerance, 0.0, 1.0);
  };
}

}  // namespace utility

std::size_t GoalModel::add_objective(Objective o) {
  objectives_.push_back(std::move(o));
  return objectives_.size() - 1;
}

void GoalModel::add_constraint(Constraint c) {
  constraints_.push_back(std::move(c));
}

bool GoalModel::set_weight(const std::string& metric, double weight) {
  bool found = false;
  for (auto& o : objectives_) {
    if (o.metric == metric) {
      o.weight = weight;
      found = true;
    }
  }
  return found;
}

double GoalModel::raw_utility(const MetricMap& m) const {
  if (objectives_.empty()) return 0.0;
  double acc = 0.0, total_w = 0.0;
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    acc += objectives_[i].weight * objective_utility(i, m);
    total_w += objectives_[i].weight;
  }
  return total_w > 0.0 ? acc / total_w : 0.0;
}

double GoalModel::utility(const MetricMap& m) const {
  double u = raw_utility(m);
  for (const auto& c : constraints_) {
    if (!c.satisfied(m)) {
      if (c.hard) return 0.0;
      u -= c.penalty;
    }
  }
  return std::clamp(u, 0.0, 1.0);
}

std::size_t GoalModel::violated(const MetricMap& m) const {
  return static_cast<std::size_t>(
      std::count_if(constraints_.begin(), constraints_.end(),
                    [&](const Constraint& c) { return !c.satisfied(m); }));
}

bool GoalModel::feasible(const MetricMap& m) const {
  return std::all_of(constraints_.begin(), constraints_.end(),
                     [&](const Constraint& c) {
                       return !c.hard || c.satisfied(m);
                     });
}

double GoalModel::objective_utility(std::size_t i, const MetricMap& m) const {
  const Objective& o = objectives_[i];
  const auto it = m.find(o.metric);
  return it == m.end() ? 0.0 : o.fn(it->second);
}

bool GoalModel::dominates(const MetricMap& a, const MetricMap& b) const {
  bool strictly_better = false;
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    const double ua = objective_utility(i, a);
    const double ub = objective_utility(i, b);
    if (ua < ub) return false;
    if (ua > ub) strictly_better = true;
  }
  return strictly_better;
}

}  // namespace sa::core

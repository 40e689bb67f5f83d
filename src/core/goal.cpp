#include "core/goal.hpp"

#include <algorithm>
#include <cmath>

namespace sa::core {

double UtilityFn::operator()(double x) const {
  switch (shape) {
    case Shape::Rising:
      if (b <= a) return x >= b ? 1.0 : 0.0;
      return std::clamp((x - a) / (b - a), 0.0, 1.0);
    case Shape::Falling:
      if (b <= a) return x <= a ? 1.0 : 0.0;
      return std::clamp((b - x) / (b - a), 0.0, 1.0);
    case Shape::Target:
      if (b <= 0.0) return x == a ? 1.0 : 0.0;
      return std::clamp(1.0 - std::fabs(x - a) / b, 0.0, 1.0);
  }
  return 0.0;
}

MetricId GoalModel::intern(std::string_view metric) {
  const auto id = static_cast<MetricId>(
      std::find(metrics_.begin(), metrics_.end(), metric) - metrics_.begin());
  if (id == metrics_.size()) metrics_.emplace_back(metric);
  return id;
}

MetricId GoalModel::add_objective(std::string_view metric, UtilityFn fn,
                                  double weight) {
  const MetricId id = intern(metric);
  objectives_.push_back({id, fn, weight});
  return id;
}

void GoalModel::add_constraint(std::string_view metric, double at_most) {
  constraints_.push_back({intern(metric), at_most});
}

bool GoalModel::set_weight(std::string_view metric, double weight) {
  bool found = false;
  for (auto& o : objectives_) {
    if (metrics_[o.metric] == metric) {
      o.weight = weight;
      found = true;
    }
  }
  return found;
}

double GoalModel::utility(std::span<const double> m) const {
  if (objectives_.empty() || violated(m) > 0) return 0.0;
  double acc = 0.0, total_w = 0.0;
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    acc += objectives_[i].weight * objective_utility(i, m);
    total_w += objectives_[i].weight;
  }
  return total_w > 0.0 ? std::clamp(acc / total_w, 0.0, 1.0) : 0.0;
}

std::size_t GoalModel::violated(std::span<const double> m) const {
  return static_cast<std::size_t>(
      std::count_if(constraints_.begin(), constraints_.end(),
                    [&](const Constraint& c) { return !c.satisfied(m); }));
}

double GoalModel::objective_utility(std::size_t i,
                                    std::span<const double> m) const {
  const Objective& o = objectives_[i];
  const double v = o.metric < m.size() ? m[o.metric] : kAbsent;
  return std::isnan(v) ? 0.0 : o.fn(v);
}

bool GoalModel::dominates(std::span<const double> a,
                          std::span<const double> b) const {
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

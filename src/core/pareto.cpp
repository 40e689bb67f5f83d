#include "core/pareto.hpp"

namespace sa::core {

bool is_dominated(const GoalModel& goals,
                  const std::vector<ParetoPoint>& points, std::size_t i) {
  for (std::size_t j = 0; j < points.size(); ++j) {
    if (j == i) continue;
    if (goals.dominates(points[j].values, points[i].values)) return true;
  }
  return false;
}

std::vector<std::size_t> pareto_front(
    const GoalModel& goals, const std::vector<ParetoPoint>& points) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!is_dominated(goals, points, i)) front.push_back(i);
  }
  return front;
}

std::size_t utility_argmax(const GoalModel& goals,
                           const std::vector<ParetoPoint>& points) {
  std::size_t best = 0;
  double best_u = -1.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double u = goals.utility(points[i].values);
    if (u > best_u) {
      best_u = u;
      best = i;
    }
  }
  return best;
}

}  // namespace sa::core

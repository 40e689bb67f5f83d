// Pareto analysis over metric snapshots.
//
// The paper frames run-time evaluation as "inherently multi-objective",
// with trade-offs the scalarised utility can hide (Section I; ref [1]).
// These helpers let a system — or its operator — reason about the
// *structure* of the trade-off space: which observed configurations are
// Pareto-efficient under the current goal model, which dominate which,
// and how large the efficient frontier is. Experiment E11 uses this to
// show how a run-time goal change moves the preferred point along an
// unchanged frontier.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/goal.hpp"

namespace sa::core {

/// One candidate point in objective space: a label plus its raw metric
/// values, indexed by the goal model's metric ids.
struct ParetoPoint {
  std::string label;
  std::vector<double> values;
};

/// Indices (into `points`) of the Pareto-efficient points under `goals`:
/// a point is efficient iff no other point dominates it. Order follows the
/// input; ties (mutually non-dominating duplicates) are all kept.
[[nodiscard]] std::vector<std::size_t> pareto_front(
    const GoalModel& goals, const std::vector<ParetoPoint>& points);

/// True iff points[i] is dominated by any other point under `goals`.
[[nodiscard]] bool is_dominated(const GoalModel& goals,
                                const std::vector<ParetoPoint>& points,
                                std::size_t i);

/// Index of the utility-maximising point under `goals` (the scalarised
/// pick); by construction it always lies on the Pareto front.
[[nodiscard]] std::size_t utility_argmax(
    const GoalModel& goals, const std::vector<ParetoPoint>& points);

}  // namespace sa::core

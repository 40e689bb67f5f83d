// Goal awareness: knowing one's own goals and how well they are being met.
//
// Reads the current metric values out of the knowledge base, evaluates the
// GoalModel, and publishes utility, feasibility, per-objective breakdown and
// violation events. Because the goal model is mutable at run time, this
// process also notices *goal change* — a shift in weights — and flags it,
// so downstream learners can reset instead of chasing a stale objective.
#pragma once

#include <string>
#include <vector>

#include "core/goal.hpp"
#include "core/process.hpp"
#include "learn/estimators.hpp"

namespace sa::core {

class GoalAwareness final : public AwarenessProcess {
 public:
  /// `kb` and `goals` must outlive this process. `metrics` lists the KB
  /// keys (or observation signals) that carry the objectives' raw metric
  /// values.
  GoalAwareness(KnowledgeBase& kb, GoalModel& goals,
                std::vector<std::string> metrics)
      : kb_(kb),
        goals_(goals),
        metrics_(std::move(metrics)),
        metric_keys_(metrics_.size(), KnowledgeBase::kNoKey) {}

  [[nodiscard]] Level level() const override { return Level::Goal; }
  [[nodiscard]] std::string name() const override { return "goal"; }

  /// Publishes "goal.utility", "goal.feasible", "goal.violations" and
  /// "goal.<metric>.utility" per objective.
  void update(double t, const Observation& obs) override;

  /// Utility computed on the most recent update.
  [[nodiscard]] double current_utility() const noexcept { return utility_; }
  [[nodiscard]] bool currently_feasible() const noexcept { return feasible_; }
  /// Recency-weighted mean utility — the agent's sense of "how am I doing".
  [[nodiscard]] double utility_trend() const noexcept {
    return trend_.value();
  }
  /// The metric map assembled on the last update (for policies/explainers).
  [[nodiscard]] const MetricMap& last_metrics() const noexcept {
    return last_metrics_;
  }
  [[nodiscard]] GoalModel& goals() noexcept { return goals_; }

  [[nodiscard]] double quality() const override;
  void reconfigure() override { trend_.reset(); }

 private:
  KnowledgeBase& kb_;
  GoalModel& goals_;
  std::vector<std::string> metrics_;
  MetricMap last_metrics_;
  // Cached KB ids: the metrics read back (parallel to metrics_, resolved
  // once the key exists), the fixed "goal.*" keys, and one
  // "goal.<metric>.utility" per breakdown position with its metric name.
  KnowledgeBase::SourceId src_ = 0;  ///< "goal", resolved on first update
  std::vector<KnowledgeBase::KeyId> metric_keys_;
  KnowledgeBase::KeyId k_utility_ = KnowledgeBase::kNoKey;
  KnowledgeBase::KeyId k_trend_ = KnowledgeBase::kNoKey;
  KnowledgeBase::KeyId k_feasible_ = KnowledgeBase::kNoKey;
  KnowledgeBase::KeyId k_violations_ = KnowledgeBase::kNoKey;
  std::vector<std::pair<std::string, KnowledgeBase::KeyId>> breakdown_keys_;
  double utility_ = 0.0;
  bool feasible_ = true;
  learn::Ewma trend_{0.05};
  std::size_t updates_ = 0;
};

}  // namespace sa::core

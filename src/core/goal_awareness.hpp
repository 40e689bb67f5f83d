// Goal awareness: knowing one's own goals and how well they are being met.
//
// Reads the current metric values out of the knowledge base, evaluates the
// GoalModel, and publishes utility, feasibility, per-objective breakdown and
// violation events. Because the goal model is mutable at run time, this
// process also notices *goal change* — a shift in weights — and flags it,
// so downstream learners can reset instead of chasing a stale objective.
//
// The metric values live in one vector indexed by the goal model's metric
// ids (NaN while a metric is absent), so a warm update allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/goal.hpp"
#include "core/process.hpp"
#include "learn/estimators.hpp"

namespace sa::core {

class GoalAwareness final : public AwarenessProcess {
 public:
  /// `kb` and `goals` must outlive this process. The goal model's metric
  /// table names the KB keys (or observation signals) that carry the raw
  /// metric values; metrics it gains later are read from the next update.
  GoalAwareness(KnowledgeBase& kb, GoalModel& goals)
      : kb_(kb), goals_(goals) {}

  [[nodiscard]] Level level() const override { return Level::Goal; }
  [[nodiscard]] std::string name() const override { return "goal"; }

  /// Publishes "goal.utility", its recency-weighted mean
  /// "goal.utility.trend" (the agent's sense of "how am I doing"),
  /// "goal.feasible", "goal.violations" and "goal.<metric>.utility" per
  /// objective.
  void update(double t, const Observation& obs) override;

  /// Utility computed on the most recent update.
  [[nodiscard]] double current_utility() const noexcept { return utility_; }

  [[nodiscard]] double quality() const override;
  void reconfigure() override { trend_.reset(); }

 private:
  /// Re-resolves the metrics' observation slots when `signals` is new or
  /// has grown, or the goal model has gained metrics.
  void resolve_metrics(const SignalTable* signals);

  KnowledgeBase& kb_;
  GoalModel& goals_;
  std::vector<double> values_;  ///< by metric id; NaN while absent
  std::size_t available_ = 0;   ///< metrics sampled or known last update
  /// Where metric i comes from: its observation slot (kNoSlot if no sensor
  /// has that name) against slots_of_ at size slots_size_, and its KB id
  /// (resolved once the key exists).
  struct Metric {
    std::uint32_t slot = kNoSlot;
    KnowledgeBase::KeyId key = KnowledgeBase::kNoKey;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  KnowledgeBase::SourceId src_ = 0;  ///< "goal", resolved on first update
  std::vector<Metric> metric_state_;
  const SignalTable* slots_of_ = nullptr;
  std::size_t slots_size_ = 0;
  // Cached KB ids: the fixed "goal.*" keys, and "goal.<metric>.utility" by
  // objective (objectives are only ever appended).
  KnowledgeBase::KeyId k_utility_ = KnowledgeBase::kNoKey;
  KnowledgeBase::KeyId k_trend_ = KnowledgeBase::kNoKey;
  KnowledgeBase::KeyId k_feasible_ = KnowledgeBase::kNoKey;
  KnowledgeBase::KeyId k_violations_ = KnowledgeBase::kNoKey;
  std::vector<KnowledgeBase::KeyId> breakdown_keys_;
  double utility_ = 0.0;
  learn::Ewma trend_{0.05};
  std::size_t updates_ = 0;
};

}  // namespace sa::core

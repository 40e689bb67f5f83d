// Goal awareness: knowing one's own goals and how well they are being met.
//
// Reads the current metric values out of the knowledge base, evaluates the
// GoalModel, and publishes utility, feasibility, per-objective breakdown and
// violation events. Because the goal model is mutable at run time, this
// process also notices *goal change* — a shift in weights — and flags it,
// so downstream learners can reset instead of chasing a stale objective.
//
// A warm update allocates nothing: the metric map is updated in place
// (a metric's node is made once and kept while the metric stays
// available), and the per-objective utilities and the violation count are
// computed straight off the goal model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
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
        metric_state_(metrics_.size()) {}

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
  /// The metric map of the last update: every metric that was sampled or
  /// known (for policies/explainers).
  [[nodiscard]] const MetricMap& last_metrics() const noexcept {
    return last_metrics_;
  }
  [[nodiscard]] GoalModel& goals() noexcept { return goals_; }

  [[nodiscard]] double quality() const override;
  void reconfigure() override { trend_.reset(); }

 private:
  /// Re-resolves metric_slots_ when `signals` is new or has grown.
  void resolve_slots(const SignalTable* signals);
  /// Stores metric `i`'s value this step, or drops it when unavailable.
  void set_metric(std::size_t i, bool available, double value);

  KnowledgeBase& kb_;
  GoalModel& goals_;
  std::vector<std::string> metrics_;
  MetricMap last_metrics_;
  /// Where metric i (of metrics_) comes from and goes to: its node in
  /// last_metrics_ (null while absent), its observation slot (npos if no
  /// sensor has that name) against slots_of_ at size slots_size_, and its
  /// KB id (resolved once the key exists).
  struct Metric {
    double* node = nullptr;
    std::uint32_t slot = kNoSlot;
    KnowledgeBase::KeyId key = KnowledgeBase::kNoKey;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  KnowledgeBase::SourceId src_ = 0;  ///< "goal", resolved on first update
  std::vector<Metric> metric_state_;
  const SignalTable* slots_of_ = nullptr;
  std::size_t slots_size_ = 0;
  // Cached KB ids: the fixed "goal.*" keys, and one "goal.<metric>.utility"
  // per objective position with its metric name.
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

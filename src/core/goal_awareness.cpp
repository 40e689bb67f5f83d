#include "core/goal_awareness.hpp"

namespace sa::core {

void GoalAwareness::update(double t, const Observation& obs) {
  if (src_ == 0) src_ = kb_.source_id(name());
  last_metrics_.clear();
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const std::string& key = metrics_[i];
    // Fresh observation wins; otherwise fall back to the KB's latest view
    // (the metric may be produced by another process, or unsampled this
    // step under an attention budget).
    if (const auto it = obs.find(key); it != obs.end()) {
      last_metrics_[key] = it->second;
      continue;
    }
    KnowledgeBase::KeyId& id = metric_keys_[i];
    if (id == KnowledgeBase::kNoKey) id = kb_.find(key);
    if (id != KnowledgeBase::kNoKey) last_metrics_[key] = kb_.number(id);
  }

  utility_ = goals_.utility(last_metrics_);
  feasible_ = goals_.feasible(last_metrics_);
  trend_.add(utility_);
  ++updates_;

  kb_.put_number(kb_.key(k_utility_, "goal.utility"), utility_, t, 1.0,
                 Scope::Private, src_);
  kb_.put_number(kb_.key(k_trend_, "goal.utility.trend"), trend_.value(), t,
                 1.0, Scope::Private, src_);
  kb_.put_number(kb_.key(k_feasible_, "goal.feasible"), feasible_ ? 1.0 : 0.0,
                 t, 1.0, Scope::Private, src_);
  const auto violated = goals_.violations(last_metrics_);
  kb_.put_number(kb_.key(k_violations_, "goal.violations"),
                 static_cast<double>(violated.size()), t, 1.0, Scope::Private,
                 src_);
  const auto breakdown = goals_.breakdown(last_metrics_);
  if (breakdown_keys_.size() < breakdown.size()) {
    breakdown_keys_.resize(breakdown.size(), {{}, KnowledgeBase::kNoKey});
  }
  for (std::size_t i = 0; i < breakdown.size(); ++i) {
    const auto& [metric, u] = breakdown[i];
    auto& [cached_metric, id] = breakdown_keys_[i];
    if (cached_metric != metric) {  // new objective at this position
      cached_metric = metric;
      id = KnowledgeBase::kNoKey;
    }
    kb_.put_number(kb_.key(id, "goal.", metric, ".utility"), u, t, 1.0,
                   Scope::Private, src_);
  }
}

double GoalAwareness::quality() const {
  if (updates_ == 0) return 0.0;
  // Goal awareness is "working" when it has all its metrics available.
  return metrics_.empty()
             ? 1.0
             : static_cast<double>(last_metrics_.size()) /
                   static_cast<double>(metrics_.size());
}

}  // namespace sa::core

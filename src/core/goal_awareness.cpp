#include "core/goal_awareness.hpp"

namespace sa::core {

void GoalAwareness::resolve_metrics(const SignalTable* signals) {
  const std::size_t metrics = goals_.metrics();
  const std::size_t size = signals != nullptr ? signals->size() : 0;
  if (metrics == metric_state_.size() && signals == slots_of_ &&
      size == slots_size_) {
    return;
  }
  metric_state_.resize(metrics);
  values_.resize(metrics, kAbsent);
  slots_of_ = signals;
  slots_size_ = size;
  for (MetricId i = 0; i < metrics; ++i) {
    const std::size_t slot = signals != nullptr
                                 ? signals->find(goals_.metric_name(i))
                                 : SignalTable::npos;
    metric_state_[i].slot =
        slot == SignalTable::npos ? kNoSlot : static_cast<std::uint32_t>(slot);
  }
}

void GoalAwareness::update(double t, const Observation& obs) {
  if (src_ == 0) src_ = kb_.source_id(name());
  resolve_metrics(obs.signals());
  available_ = 0;
  for (MetricId i = 0; i < metric_state_.size(); ++i) {
    // Fresh observation wins; otherwise fall back to the KB's latest view
    // (the metric may be produced by another process, or unsampled this
    // step under an attention budget).
    Metric& m = metric_state_[i];
    if (m.slot != kNoSlot && obs.has(m.slot)) {
      values_[i] = obs.value(m.slot);
      ++available_;
      continue;
    }
    if (m.key == KnowledgeBase::kNoKey) {
      m.key = kb_.find(goals_.metric_name(i));
    }
    const bool known = m.key != KnowledgeBase::kNoKey;
    values_[i] = known ? kb_.number(m.key) : kAbsent;
    available_ += known;
  }

  utility_ = goals_.utility(values_);
  trend_.add(utility_);
  ++updates_;

  kb_.put_number(kb_.key(k_utility_, "goal.utility"), utility_, t, 1.0,
                 Scope::Private, src_);
  kb_.put_number(kb_.key(k_trend_, "goal.utility.trend"), trend_.value(), t,
                 1.0, Scope::Private, src_);
  kb_.put_number(kb_.key(k_feasible_, "goal.feasible"),
                 goals_.feasible(values_) ? 1.0 : 0.0, t, 1.0, Scope::Private,
                 src_);
  kb_.put_number(kb_.key(k_violations_, "goal.violations"),
                 static_cast<double>(goals_.violated(values_)), t, 1.0,
                 Scope::Private, src_);
  breakdown_keys_.resize(goals_.objectives(), KnowledgeBase::kNoKey);
  for (std::size_t i = 0; i < breakdown_keys_.size(); ++i) {
    kb_.put_number(kb_.key(breakdown_keys_[i], "goal.",
                           goals_.metric_name(goals_.objective_metric(i)),
                           ".utility"),
                   goals_.objective_utility(i, values_), t, 1.0,
                   Scope::Private, src_);
  }
}

double GoalAwareness::quality() const {
  if (updates_ == 0) return 0.0;
  // Goal awareness is "working" when it has all its metrics available.
  return metric_state_.empty()
             ? 1.0
             : static_cast<double>(available_) /
                   static_cast<double>(metric_state_.size());
}

}  // namespace sa::core

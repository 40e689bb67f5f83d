#include "core/goal_awareness.hpp"

namespace sa::core {

void GoalAwareness::resolve_slots(const SignalTable* signals) {
  const std::size_t size = signals != nullptr ? signals->size() : 0;
  if (signals == slots_of_ && size == slots_size_) return;
  slots_of_ = signals;
  slots_size_ = size;
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const std::size_t slot =
        signals != nullptr ? signals->find(metrics_[i]) : SignalTable::npos;
    metric_state_[i].slot =
        slot == SignalTable::npos ? kNoSlot : static_cast<std::uint32_t>(slot);
  }
}

void GoalAwareness::set_metric(std::size_t i, bool available, double value) {
  double*& node = metric_state_[i].node;
  if (available) {
    if (node == nullptr) node = &last_metrics_[metrics_[i]];
    *node = value;
  } else if (node != nullptr) {
    const double* gone = node;
    last_metrics_.erase(metrics_[i]);
    // A metric listed twice shares its node.
    for (Metric& m : metric_state_) {
      if (m.node == gone) m.node = nullptr;
    }
  }
}

void GoalAwareness::update(double t, const Observation& obs) {
  if (src_ == 0) src_ = kb_.source_id(name());
  resolve_slots(obs.signals());
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    // Fresh observation wins; otherwise fall back to the KB's latest view
    // (the metric may be produced by another process, or unsampled this
    // step under an attention budget).
    Metric& m = metric_state_[i];
    if (m.slot != kNoSlot && obs.has(m.slot)) {
      set_metric(i, true, obs.value(m.slot));
      continue;
    }
    if (m.key == KnowledgeBase::kNoKey) m.key = kb_.find(metrics_[i]);
    set_metric(i, m.key != KnowledgeBase::kNoKey, kb_.number(m.key));
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
  kb_.put_number(kb_.key(k_violations_, "goal.violations"),
                 static_cast<double>(goals_.violated(last_metrics_)), t, 1.0,
                 Scope::Private, src_);
  const std::size_t objectives = goals_.objectives();
  if (breakdown_keys_.size() < objectives) {
    breakdown_keys_.resize(objectives, {{}, KnowledgeBase::kNoKey});
  }
  for (std::size_t i = 0; i < objectives; ++i) {
    const std::string& metric = goals_.objective_metric(i);
    auto& [cached_metric, id] = breakdown_keys_[i];
    if (cached_metric != metric) {  // new objective at this position
      cached_metric = metric;
      id = KnowledgeBase::kNoKey;
    }
    kb_.put_number(kb_.key(id, "goal.", metric, ".utility"),
                   goals_.objective_utility(i, last_metrics_), t, 1.0,
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

#include "core/time_awareness.hpp"

namespace sa::core {

std::size_t TimeAwareness::Ensemble::best() const {
  std::size_t b = 0;
  for (std::size_t i = 1; i < members.size(); ++i) {
    // Prefer scored members; among scored, lowest MAE wins.
    const bool i_scored = members[i].scored() > 0;
    const bool b_scored = members[b].scored() > 0;
    if (i_scored && (!b_scored || members[i].mae() < members[b].mae())) b = i;
  }
  return b;
}

TimeAwareness::Ensemble TimeAwareness::make_ensemble() const {
  Ensemble e;
  const std::size_t h = p_.score_horizon;
  e.members.emplace_back(std::make_unique<learn::NaiveForecaster>(), h);
  e.members.emplace_back(std::make_unique<learn::SesForecaster>(), h);
  e.members.emplace_back(std::make_unique<learn::HoltForecaster>(), h);
  if (p_.seasonal_period > 1) {
    e.members.emplace_back(
        std::make_unique<learn::HoltWintersForecaster>(p_.seasonal_period),
        h);
  }
  return e;
}

void TimeAwareness::update(double t, const Observation& obs,
                           KnowledgeBase& kb) {
  if (!ids_.bind(kb, name())) {
    for (auto& [sig, ens] : signals_) {
      (void)sig;
      ens.forecast = ens.mae = ens.model = KnowledgeBase::kNoKey;
    }
  }
  const KnowledgeBase::SourceId src = ids_.source();
  for (const auto& [sig, value] : obs) {
    auto it = signals_.find(sig);
    if (it == signals_.end()) {
      it = signals_.emplace(sig, make_ensemble()).first;
    }
    auto& ens = it->second;
    for (auto& m : ens.members) m.observe(value);

    const std::size_t b = ens.best();
    const auto& winner = ens.members[b];
    const double conf =
        winner.scored() > 0 ? 1.0 / (1.0 + winner.mae() / p_.error_scale)
                            : 0.0;
    kb.put_number(kb.key(ens.forecast, "forecast.", sig), winner.forecast(1),
                  t, conf, Scope::Private, src);
    kb.put_number(kb.key(ens.mae, "forecast.", sig, ".mae"), winner.mae(), t,
                  1.0, Scope::Private, src);
    kb.put_number(kb.key(ens.model, "forecast.", sig, ".model"),
                  static_cast<double>(b), t, 1.0, Scope::Private, src);
  }
}

double TimeAwareness::forecast(const std::string& signal,
                               std::size_t h) const {
  const auto it = signals_.find(signal);
  if (it == signals_.end()) return 0.0;
  return it->second.members[it->second.best()].forecast(h);
}

double TimeAwareness::quality() const {
  // No tracked signals yet — neutral, not failing.
  if (signals_.empty()) return 1.0;
  double acc = 0.0;
  for (const auto& [sig, ens] : signals_) {
    (void)sig;
    const auto& winner = ens.members[ens.best()];
    acc += winner.scored() > 0
               ? 1.0 / (1.0 + winner.mae() / p_.error_scale)
               : 0.0;
  }
  return acc / static_cast<double>(signals_.size());
}

void TimeAwareness::reconfigure() { signals_.clear(); }

}  // namespace sa::core

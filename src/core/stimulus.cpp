#include "core/stimulus.hpp"

#include <cmath>

namespace sa::core {

void StimulusAwareness::update(double t, const Observation& obs,
                               KnowledgeBase& kb) {
  events_.clear();
  if (!ids_.bind(kb, name())) {
    for (auto& [sig, m] : models_) {
      (void)sig;
      m.raw = m.baseline = m.novel = KnowledgeBase::kNoKey;
    }
  }
  const KnowledgeBase::SourceId src = ids_.source();
  for (const auto& [sig, value] : obs) {
    auto [it, inserted] = models_.try_emplace(sig, p_.alpha);
    Model& m = it->second;
    const bool warm = !inserted && m.var.count() >= p_.min_samples;
    if (warm) {
      const double sd = m.var.stddev();
      const double z = sd > 1e-9 ? (value - m.var.mean()) / sd : 0.0;
      if (std::fabs(z) >= p_.novelty_z) {
        events_.push_back({sig, value, z, t});
        kb.put_number(kb.key(m.novel, "stimulus.", sig, ".novel"), z, t, 1.0,
                      Scope::Private, src);
      }
    }
    m.var.add(value);
    // Raw reading is part of the public self: it is externally observable.
    kb.put_number(kb.key(m.raw, sig), value, t, 1.0, Scope::Public, src);
    kb.put_number(kb.key(m.baseline, "stimulus.", sig, ".baseline"),
                  m.var.mean(), t, warm ? 1.0 : 0.5, Scope::Private, src);
  }
}

double StimulusAwareness::quality() const {
  // No signals observed yet — neutral, not failing.
  if (models_.empty()) return 1.0;
  std::size_t warm = 0;
  for (const auto& [sig, m] : models_) {
    (void)sig;
    if (m.var.count() >= p_.min_samples) ++warm;
  }
  return static_cast<double>(warm) / static_cast<double>(models_.size());
}

void StimulusAwareness::reconfigure() { models_.clear(); }

}  // namespace sa::core

#include "core/stimulus.hpp"

#include <cmath>

namespace sa::core {

void StimulusAwareness::update(double t, const Observation& obs) {
  events_.clear();
  if (src_ == 0) src_ = kb_.source_id(name());
  for (const auto& [sig, value] : obs) {
    auto [it, inserted] = models_.try_emplace(sig);
    Model& m = it->second;
    const bool warm = !inserted && m.var.count() >= kMinSamples;
    if (warm) {
      const double sd = m.var.stddev();
      const double z = sd > 1e-9 ? (value - m.var.mean()) / sd : 0.0;
      if (std::fabs(z) >= kNoveltyZ) {
        events_.push_back({sig, value, z, t});
        kb_.put_number(kb_.key(m.novel, "stimulus.", sig, ".novel"), z, t,
                       1.0, Scope::Private, src_);
      }
    }
    m.var.add(value);
    // Raw reading is part of the public self: it is externally observable.
    kb_.put_number(kb_.key(m.raw, sig), value, t, 1.0, Scope::Public, src_);
    kb_.put_number(kb_.key(m.baseline, "stimulus.", sig, ".baseline"),
                   m.var.mean(), t, warm ? 1.0 : 0.5, Scope::Private, src_);
  }
}

double StimulusAwareness::quality() const {
  // No signals observed yet — neutral, not failing.
  if (models_.empty()) return 1.0;
  std::size_t warm = 0;
  for (const auto& [sig, m] : models_) {
    (void)sig;
    if (m.var.count() >= kMinSamples) ++warm;
  }
  return static_cast<double>(warm) / static_cast<double>(models_.size());
}

void StimulusAwareness::reconfigure() { models_.clear(); }

}  // namespace sa::core

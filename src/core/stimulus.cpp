#include "core/stimulus.hpp"

#include <cmath>

namespace sa::core {

void StimulusAwareness::update(double t, const Observation& obs) {
  events_.clear();
  if (!bind_signals(signals_, obs)) return;
  if (src_ == 0) src_ = kb_.source_id(name());
  if (models_.size() < signals_->size()) models_.resize(signals_->size());
  for (const auto [slot, value] : obs) {
    const std::string& sig = signals_->name(slot);
    Model& m = models_[slot];
    const bool warm = m.var.count() >= kMinSamples;
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
  std::size_t made = 0, warm = 0;
  for (const Model& m : models_) {
    made += m.var.count() > 0;
    warm += m.var.count() >= kMinSamples;
  }
  // No signals observed yet — neutral, not failing.
  if (made == 0) return 1.0;
  return static_cast<double>(warm) / static_cast<double>(made);
}

void StimulusAwareness::reconfigure() {
  // Fresh baselines; the cached key ids stay valid for the same keys.
  for (Model& m : models_) m.var.reset();
}

}  // namespace sa::core

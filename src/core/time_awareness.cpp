#include "core/time_awareness.hpp"

#include <algorithm>

namespace sa::core {

double TimeAwareness::confidence(const Signal& s, std::size_t best) const {
  return s.ens.scored(shape_) > 0
             ? 1.0 / (1.0 + s.ens.mae(best, shape_) / p_.error_scale)
             : 0.0;
}

void TimeAwareness::update(double t, const Observation& obs) {
  if (!bind_signals(signals_, obs)) return;
  if (src_ == 0) src_ = kb_.source_id(name());
  if (state_.size() < signals_->size()) state_.resize(signals_->size());
  const std::size_t tail_size = shape_.tail_size();
  for (const auto [slot, value] : obs) {
    Signal& s = state_[slot];
    if (s.tail == kNoTail) {
      // First reading ever: room for every signal's tail at once.
      if (tails_.empty()) tails_.reserve(state_.size() * tail_size);
      s.tail = static_cast<std::uint32_t>(tails_.size());
      tails_.resize(tails_.size() + tail_size, 0.0);
    }
    double* tail = tails_.data() + s.tail;
    s.ens.observe(value, shape_, tail);

    const std::size_t b = s.ens.best(shape_);
    const std::string& sig = signals_->name(slot);
    kb_.put_number(kb_.key(s.forecast, "forecast.", sig),
                   s.ens.forecast(b, 1, shape_, tail), t, confidence(s, b),
                   Scope::Private, src_);
    kb_.put_number(kb_.key(s.mae, "forecast.", sig, ".mae"),
                   s.ens.mae(b, shape_), t, 1.0, Scope::Private, src_);
    kb_.put_number(kb_.key(s.model, "forecast.", sig, ".model"),
                   static_cast<double>(b), t, 1.0, Scope::Private, src_);
  }
}

double TimeAwareness::forecast(std::string_view signal, std::size_t h) const {
  const std::size_t slot =
      signals_ != nullptr ? signals_->find(signal) : SignalTable::npos;
  if (slot >= state_.size() || state_[slot].ens.count() == 0) return 0.0;
  const Signal& s = state_[slot];
  return s.ens.forecast(s.ens.best(shape_), h, shape_, tails_.data() + s.tail);
}

double TimeAwareness::quality() const {
  double acc = 0.0;
  std::size_t tracked = 0;
  if (signals_ != nullptr) {
    for (const std::uint32_t slot : signals_->by_name()) {
      if (slot >= state_.size() || state_[slot].ens.count() == 0) continue;
      const Signal& s = state_[slot];
      acc += confidence(s, s.ens.best(shape_));
      ++tracked;
    }
  }
  // No tracked signals yet — neutral, not failing.
  if (tracked == 0) return 1.0;
  return acc / static_cast<double>(tracked);
}

void TimeAwareness::reconfigure() {
  // Fresh ensembles in place: each signal keeps its tail and key ids.
  for (Signal& s : state_) s.ens = {};
  std::fill(tails_.begin(), tails_.end(), 0.0);
}

}  // namespace sa::core

#include "core/interaction.hpp"

#include <cmath>

namespace sa::core {

void InteractionAwareness::record_interaction(const std::string& peer,
                                              bool success, double value) {
  PeerModel& m = peers_[peer];
  m.reliability.add(success ? 1.0 : 0.0);
  m.value.add(value);
  ++m.count;
}

void InteractionAwareness::update(double t, const Observation& obs) {
  (void)obs;  // interactions arrive via record_*; obs unused at this level
  if (src_ == 0) src_ = kb_.source_id(name());
  for (auto& [peer, m] : peers_) {
    const double conf =
        1.0 - std::exp(-static_cast<double>(m.count) / 10.0);
    kb_.put_number(kb_.key(m.k_reliability, "peer.", peer, ".reliability"),
                   m.reliability.value(), t, conf, Scope::Private, src_);
    kb_.put_number(kb_.key(m.k_interactions, "peer.", peer, ".interactions"),
                   static_cast<double>(m.count), t, 1.0, Scope::Private, src_);
    kb_.put_number(kb_.key(m.k_value, "peer.", peer, ".value"),
                   m.value.value(), t, conf, Scope::Private, src_);
  }
}

double InteractionAwareness::reliability(const std::string& peer) const {
  const auto it = peers_.find(peer);
  return it == peers_.end() ? 0.0 : it->second.reliability.value();
}

std::size_t InteractionAwareness::interactions(const std::string& peer) const {
  const auto it = peers_.find(peer);
  return it == peers_.end() ? 0 : it->second.count;
}

std::vector<std::string> InteractionAwareness::peers() const {
  std::vector<std::string> out;
  out.reserve(peers_.size());
  for (const auto& [id, m] : peers_) {
    (void)m;
    out.push_back(id);
  }
  return out;
}

double InteractionAwareness::quality() const {
  // No peers means nothing to model — neutral, not failing.
  if (peers_.empty()) return 1.0;
  double acc = 0.0;
  for (const auto& [id, m] : peers_) {
    (void)id;
    acc += 1.0 - std::exp(-static_cast<double>(m.count) / 10.0);
  }
  return acc / static_cast<double>(peers_.size());
}

void InteractionAwareness::reconfigure() { peers_.clear(); }

}  // namespace sa::core

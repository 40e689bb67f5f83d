#include "core/interaction.hpp"

#include <algorithm>
#include <cmath>

namespace sa::core {

InteractionAwareness::PeerModel& InteractionAwareness::model_for(
    const std::string& peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) {
    it = peers_.emplace(peer, PeerModel(p_.alpha, p_.peer_states)).first;
  }
  return it->second;
}

void InteractionAwareness::record_interaction(const std::string& peer,
                                              bool success, double value) {
  auto& m = model_for(peer);
  m.reliability.add(success ? 1.0 : 0.0);
  m.value.add(value);
  ++m.count;
}

void InteractionAwareness::record_peer_state(const std::string& peer,
                                             std::size_t state) {
  if (p_.peer_states == 0) return;
  model_for(peer).behaviour.observe(std::min(state, p_.peer_states - 1));
}

void InteractionAwareness::update(double t, const Observation& obs,
                                  KnowledgeBase& kb) {
  (void)obs;  // interactions arrive via record_*; obs unused at this level
  if (!ids_.bind(kb, name())) {
    for (auto& [peer, m] : peers_) {
      (void)peer;
      m.k_reliability = m.k_interactions = m.k_value = m.k_predicted =
          KnowledgeBase::kNoKey;
    }
  }
  const KnowledgeBase::SourceId src = ids_.source();
  for (auto& [peer, m] : peers_) {
    const double conf =
        1.0 - std::exp(-static_cast<double>(m.count) / 10.0);
    kb.put_number(kb.key(m.k_reliability, "peer.", peer, ".reliability"),
                  m.reliability.value(), t, conf, Scope::Private, src);
    kb.put_number(kb.key(m.k_interactions, "peer.", peer, ".interactions"),
                  static_cast<double>(m.count), t, 1.0, Scope::Private, src);
    kb.put_number(kb.key(m.k_value, "peer.", peer, ".value"), m.value.value(),
                  t, conf, Scope::Private, src);
    if (p_.peer_states > 0 && m.behaviour.observations() > 1) {
      kb.put_number(kb.key(m.k_predicted, "peer.", peer, ".predicted_state"),
                    static_cast<double>(m.behaviour.predict_next()), t, conf,
                    Scope::Private, src);
    }
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

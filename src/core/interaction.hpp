// Interaction awareness: models of the entities the agent deals with.
//
// Covers Neisser's interpersonal self: who do I interact with, how reliable
// are they, what do they tend to do next? Substrates report interactions
// explicitly (record_interaction); the process distils them into per-peer
// reliability and behaviour models and publishes them to the knowledge base
// so policies can, e.g., prefer dependable volunteer nodes (paper,
// Section II, volunteer clouds [14][15]).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/process.hpp"
#include "learn/estimators.hpp"
#include "learn/markov.hpp"

namespace sa::core {

class InteractionAwareness final : public AwarenessProcess {
 public:
  struct Params {
    double alpha = 0.1;          ///< EWMA reactivity of reliability estimate
    std::size_t peer_states = 0; ///< >0 enables Markov behaviour model
  };

  InteractionAwareness() : InteractionAwareness(Params{}) {}
  explicit InteractionAwareness(Params p) : p_(p) {}

  [[nodiscard]] Level level() const override { return Level::Interaction; }
  [[nodiscard]] std::string name() const override { return "interaction"; }

  /// Records the outcome of one interaction with `peer`.
  /// `success` — did the peer do what was expected; `value` — optional
  /// payoff of the interaction (e.g. response time contribution).
  void record_interaction(const std::string& peer, bool success,
                          double value = 0.0);
  /// Records a discrete behavioural state of `peer` (feeds Markov model).
  void record_peer_state(const std::string& peer, std::size_t state);

  /// Publishes "peer.<id>.reliability", ".interactions", ".value" and, if
  /// enabled, ".predicted_state" for every known peer.
  void update(double t, const Observation& obs, KnowledgeBase& kb) override;

  [[nodiscard]] double reliability(const std::string& peer) const;
  [[nodiscard]] std::size_t interactions(const std::string& peer) const;
  [[nodiscard]] std::vector<std::string> peers() const;
  /// Mean reliability-estimate confidence across peers.
  [[nodiscard]] double quality() const override;
  void reconfigure() override;

 private:
  struct PeerModel {
    learn::Ewma reliability;
    learn::Ewma value;
    std::size_t count = 0;
    learn::MarkovPredictor behaviour;
    /// Cached ids of the "peer.<id>." keys this model publishes.
    KnowledgeBase::KeyId k_reliability = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId k_interactions = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId k_value = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId k_predicted = KnowledgeBase::kNoKey;
    PeerModel(double alpha, std::size_t states)
        : reliability(alpha), value(alpha),
          behaviour(states == 0 ? 1 : states) {}
  };
  PeerModel& model_for(const std::string& peer);

  Params p_;
  std::map<std::string, PeerModel> peers_;
  KnowledgeIds ids_;
};

}  // namespace sa::core

// Interaction awareness: models of the entities the agent deals with.
//
// Covers Neisser's interpersonal self: who do I interact with, and how
// reliable are they? Substrates report interactions explicitly
// (record_interaction); the process distils them into per-peer
// reliability and payoff models and publishes them to the knowledge base
// so policies can, e.g., prefer dependable volunteer nodes (paper,
// Section II, volunteer clouds [14][15]).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/process.hpp"
#include "learn/estimators.hpp"

namespace sa::core {

class InteractionAwareness final : public AwarenessProcess {
 public:
  static constexpr double kAlpha = 0.1;  ///< EWMA reactivity of estimates

  /// `kb` must outlive this process.
  explicit InteractionAwareness(KnowledgeBase& kb) : kb_(kb) {}

  [[nodiscard]] Level level() const override { return Level::Interaction; }
  [[nodiscard]] std::string name() const override { return "interaction"; }

  /// Records the outcome of one interaction with `peer`.
  /// `success` — did the peer do what was expected; `value` — optional
  /// payoff of the interaction (e.g. response time contribution).
  void record_interaction(const std::string& peer, bool success,
                          double value = 0.0);

  /// Publishes "peer.<id>.reliability", ".interactions" and ".value" for
  /// every known peer.
  void update(double t, const Observation& obs) override;

  [[nodiscard]] double reliability(const std::string& peer) const;
  [[nodiscard]] std::size_t interactions(const std::string& peer) const;
  [[nodiscard]] std::vector<std::string> peers() const;
  /// Mean reliability-estimate confidence across peers.
  [[nodiscard]] double quality() const override;
  void reconfigure() override;

 private:
  struct PeerModel {
    learn::Ewma reliability{kAlpha};
    learn::Ewma value{kAlpha};
    std::size_t count = 0;
    /// Cached ids of the "peer.<id>." keys this model publishes.
    KnowledgeBase::KeyId k_reliability = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId k_interactions = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId k_value = KnowledgeBase::kNoKey;
  };

  KnowledgeBase& kb_;
  KnowledgeBase::SourceId src_ = 0;  ///< "interaction", resolved on update
  std::map<std::string, PeerModel> peers_;
};

}  // namespace sa::core

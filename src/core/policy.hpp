// Decision policies: the "self-expression" side of the loop.
//
// A policy turns self-knowledge into a choice among the agent's available
// actions, which it knows only by index. It writes a Decision carrying not
// just the chosen action but every action's score, the evidence consulted
// and a rationale — the raw material for self-explanation (Schubert [25],
// Cox [28]). The caller owns the Decision and hands the same one back
// every step, so a warm decision reuses its storage. Learning policies
// accept reward feedback; all policies can be reset by the meta level.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/goal.hpp"
#include "core/knowledge.hpp"
#include "learn/bandit.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace sa::core {

/// The outcome of one decision, written into caller-owned storage.
struct Decision {
  std::size_t action_index = 0;
  std::string rationale;  ///< one-line human-readable reason
  /// Each action's score by index; empty when the policy scores nothing.
  std::vector<double> scores;
  /// KB keys that informed the choice: a view of the policy's own list,
  /// valid while the policy is installed and unchanged.
  std::span<const std::string> evidence;
  /// Id of the decide span when the agent ran traced (0 otherwise); set by
  /// SelfAwareAgent::step, not by policies.
  sim::TraceId trace_id = 0;
};

/// Interface for decision policies.
class Policy {
 public:
  virtual ~Policy() = default;
  /// Chooses one of `actions` (>= 1) actions, by index, given the
  /// current knowledge base. Writes every field of `d` but trace_id.
  virtual void decide(double t, const KnowledgeBase& kb, std::size_t actions,
                      sim::Rng& rng, Decision& d) = 0;
  /// Reward for the most recent decision (learning policies).
  virtual void feedback(double reward) { (void)reward; }
  /// Forgets learned state (meta-triggered).
  virtual void reset() {}
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Always chooses the same action — the design-time-fixed baseline.
class FixedPolicy final : public Policy {
 public:
  explicit FixedPolicy(std::size_t action) : action_(action) {}
  void decide(double t, const KnowledgeBase& kb, std::size_t actions,
              sim::Rng& rng, Decision& d) override;
  [[nodiscard]] std::string name() const override { return "fixed"; }

 private:
  std::size_t action_;
};

/// First-matching-rule policy: a reactive (stimulus-only) adaptive system
/// with no learned models — the classic non-self-aware baseline.
class RulePolicy final : public Policy {
 public:
  struct Rule {
    std::string label;                              ///< for the rationale
    std::function<bool(const KnowledgeBase&)> when; ///< guard
    std::size_t action;                             ///< index to choose
    std::vector<std::string> evidence;              ///< keys the guard reads
  };

  explicit RulePolicy(std::size_t default_action)
      : default_action_(default_action) {}
  RulePolicy& add_rule(Rule r);

  void decide(double t, const KnowledgeBase& kb, std::size_t actions,
              sim::Rng& rng, Decision& d) override;
  [[nodiscard]] std::string name() const override { return "rules"; }

 private:
  std::size_t default_action_;
  std::vector<Rule> rules_;
};

/// Wraps a learn::Bandit over the action set: learns action values online
/// from reward feedback.
class BanditPolicy final : public Policy {
 public:
  explicit BanditPolicy(std::unique_ptr<learn::Bandit> bandit)
      : bandit_(std::move(bandit)) {}

  void decide(double t, const KnowledgeBase& kb, std::size_t actions,
              sim::Rng& rng, Decision& d) override;
  void feedback(double reward) override;
  void reset() override { bandit_->reset(); }
  [[nodiscard]] std::string name() const override {
    return "bandit:" + bandit_->name();
  }
  [[nodiscard]] const learn::Bandit& bandit() const { return *bandit_; }

 private:
  std::unique_ptr<learn::Bandit> bandit_;
  std::size_t last_arm_ = 0;
  bool pending_ = false;
};

/// Model-predictive policy: for each action, ask a user-supplied response
/// model to predict the resulting metrics, score them with the goal model,
/// and take the argmax. Realises Kounev et al.'s self-prediction
/// (Section III): "predict the effects ... of actions".
class ModelBasedPolicy final : public Policy {
 public:
  /// Writes the metric values that would result from taking `action` now
  /// into `out`, indexed by the goal model's metric ids. `out` holds one
  /// value per metric, all NaN (absent) on entry.
  using ResponseModel = std::function<void(
      std::size_t action, const KnowledgeBase& kb, std::span<double> out)>;

  /// `goals` must outlive the policy. `evidence` lists the KB keys the
  /// response model consults (surfaced in explanations).
  ModelBasedPolicy(const GoalModel& goals, ResponseModel model,
                   std::vector<std::string> evidence = {})
      : goals_(goals), model_(std::move(model)),
        evidence_(std::move(evidence)) {}

  void decide(double t, const KnowledgeBase& kb, std::size_t actions,
              sim::Rng& rng, Decision& d) override;
  [[nodiscard]] std::string name() const override { return "model-based"; }

 private:
  const GoalModel& goals_;
  ResponseModel model_;
  std::vector<std::string> evidence_;
  std::vector<double> predicted_;  ///< decide()'s scratch, by metric id
};

}  // namespace sa::core

#include "core/policy.hpp"

#include <algorithm>
#include <cstdio>

namespace sa::core {

void FixedPolicy::decide(double t, const KnowledgeBase& kb,
                         std::size_t actions, sim::Rng& rng, Decision& d) {
  (void)t;
  (void)kb;
  (void)rng;
  d.action_index = std::min(action_, actions - 1);
  d.rationale.assign("fixed design-time choice");
  d.scores.clear();
  d.evidence = {};
}

RulePolicy& RulePolicy::add_rule(Rule r) {
  rules_.push_back(std::move(r));
  return *this;
}

void RulePolicy::decide(double t, const KnowledgeBase& kb,
                        std::size_t actions, sim::Rng& rng, Decision& d) {
  (void)t;
  (void)rng;
  d.scores.clear();
  for (const auto& r : rules_) {
    if (r.when(kb)) {
      d.action_index = std::min(r.action, actions - 1);
      d.rationale.assign("rule fired: ").append(r.label);
      d.evidence = r.evidence;
      return;
    }
  }
  d.action_index = std::min(default_action_, actions - 1);
  d.rationale.assign("no rule matched; default");
  d.evidence = {};
}

void BanditPolicy::decide(double t, const KnowledgeBase& kb,
                          std::size_t actions, sim::Rng& rng, Decision& d) {
  (void)t;
  (void)kb;
  last_arm_ = bandit_->select(rng);
  pending_ = true;
  d.action_index = last_arm_;
  d.scores.resize(std::min(actions, bandit_->arms()));
  for (std::size_t a = 0; a < d.scores.size(); ++a) {
    d.scores[a] = bandit_->value(a);
  }
  // "%g" is what an ostream prints a double as by default. Bandit names
  // are short enough to stay in a string's inline buffer.
  char value[32];
  const int n = std::snprintf(value, sizeof value, "%g",
                              bandit_->value(last_arm_));
  d.rationale.assign(bandit_->name())
      .append(" value estimate ")
      .append(value, static_cast<std::size_t>(n));
  d.evidence = {};
}

void BanditPolicy::feedback(double reward) {
  if (!pending_) return;
  bandit_->update(last_arm_, reward);
  pending_ = false;
}

void ModelBasedPolicy::decide(double t, const KnowledgeBase& kb,
                              std::size_t actions, sim::Rng& rng,
                              Decision& d) {
  (void)t;
  (void)rng;
  d.action_index = 0;
  d.scores.resize(actions);
  double best = -1.0;
  for (std::size_t a = 0; a < actions; ++a) {
    predicted_.assign(goals_.metrics(), kAbsent);
    model_(a, kb, predicted_);
    d.scores[a] = goals_.utility(predicted_);
    if (d.scores[a] > best) {
      best = d.scores[a];
      d.action_index = a;
    }
  }
  // "%g" prints a double as an ostream does by default.
  char rationale[128];
  const int n = std::snprintf(
      rationale, sizeof rationale,
      "predicted utility %g is the maximum over %zu simulated alternatives",
      best, actions);
  d.rationale.assign(rationale, static_cast<std::size_t>(n));
  d.evidence = evidence_;
}

}  // namespace sa::core

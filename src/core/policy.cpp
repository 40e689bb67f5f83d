#include "core/policy.hpp"

#include <algorithm>
#include <sstream>

namespace sa::core {

Decision FixedPolicy::decide(double t, const KnowledgeBase& kb,
                             const std::vector<std::string>& actions,
                             sim::Rng& rng) {
  (void)t;
  (void)kb;
  (void)rng;
  const std::size_t a = std::min(action_, actions.size() - 1);
  return Decision{a, actions[a], "fixed design-time choice", {}, {}};
}

RulePolicy& RulePolicy::add_rule(Rule r) {
  rules_.push_back(std::move(r));
  return *this;
}

Decision RulePolicy::decide(double t, const KnowledgeBase& kb,
                            const std::vector<std::string>& actions,
                            sim::Rng& rng) {
  (void)t;
  (void)rng;
  for (const auto& r : rules_) {
    if (r.when(kb)) {
      const std::size_t a = std::min(r.action, actions.size() - 1);
      return Decision{a, actions[a], "rule fired: " + r.label, {},
                      r.evidence};
    }
  }
  const std::size_t a = std::min(default_action_, actions.size() - 1);
  return Decision{a, actions[a], "no rule matched; default", {}, {}};
}

Decision BanditPolicy::decide(double t, const KnowledgeBase& kb,
                              const std::vector<std::string>& actions,
                              sim::Rng& rng) {
  (void)t;
  (void)kb;
  last_arm_ = bandit_->select(rng);
  pending_ = true;
  Decision d;
  d.action_index = last_arm_;
  d.action = actions[std::min(last_arm_, actions.size() - 1)];
  d.considered.reserve(actions.size());
  for (std::size_t a = 0; a < actions.size() && a < bandit_->arms(); ++a) {
    d.considered.push_back({actions[a], bandit_->value(a)});
  }
  std::ostringstream os;
  os << bandit_->name() << " value estimate " << bandit_->value(last_arm_);
  d.rationale = os.str();
  return d;
}

void BanditPolicy::feedback(double reward) {
  if (!pending_) return;
  bandit_->update(last_arm_, reward);
  pending_ = false;
}

Decision ModelBasedPolicy::decide(double t, const KnowledgeBase& kb,
                                  const std::vector<std::string>& actions,
                                  sim::Rng& rng) {
  (void)t;
  (void)rng;
  Decision d;
  d.evidence = evidence_;
  double best = -1.0;
  for (std::size_t a = 0; a < actions.size(); ++a) {
    const MetricMap predicted = model_(a, kb);
    const double u = goals_.utility(predicted);
    d.considered.push_back({actions[a], u});
    if (u > best) {
      best = u;
      d.action_index = a;
    }
  }
  d.action = actions[d.action_index];
  std::ostringstream os;
  os << "predicted utility " << best << " is the maximum over "
     << actions.size() << " simulated alternatives";
  d.rationale = os.str();
  return d;
}

}  // namespace sa::core

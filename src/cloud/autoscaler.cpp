#include "cloud/autoscaler.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace sa::cloud {

const char* Autoscaler::variant_name(Variant v) noexcept {
  switch (v) {
    case Variant::Static: return "static";
    case Variant::Reactive: return "reactive";
    case Variant::SelfAware: return "self-aware";
  }
  return "?";
}

Autoscaler::Autoscaler(Cluster& cluster, DemandModel& demand, Params p)
    : cluster_(cluster), demand_(demand), p_(p), target_(p.initial_nodes) {
  if (p_.telemetry != nullptr) cluster_.set_telemetry(p_.telemetry);
  if (p_.tracer != nullptr) {
    trace_subject_ = p_.tracer->bus().intern_subject("cloud.autoscaler");
    n_epoch_ = p_.tracer->intern_name("epoch");
    k_sla_ = p_.tracer->intern_name("sla");
    k_cost_ = p_.tracer->intern_name("cost");
  }
  build_agent();
}

void Autoscaler::bind(sim::Engine& engine, double period,
                      std::function<void(const CloudEpoch&)> on_epoch) {
  if (period <= 0.0) period = cluster_.epoch_seconds();
  engine.every_tagged(
      sim::event_tag("sa.cloud.autoscaler"), period,
      [this, on_epoch = std::move(on_epoch)] {
        const CloudEpoch e = run_epoch();
        if (on_epoch) on_epoch(e);
        return true;
      },
      /*order=*/1);
}

void Autoscaler::build_agent() {
  core::AgentConfig cfg;
  cfg.seed = p_.seed;
  cfg.telemetry = p_.telemetry;
  cfg.tracer = p_.tracer;
  switch (p_.variant) {
    case Variant::Static:
      cfg.levels = core::LevelSet{};
      break;
    case Variant::Reactive:
      cfg.levels = core::LevelSet::minimal();
      break;
    case Variant::SelfAware:
      cfg.levels = p_.levels;
      break;
  }
  cfg.time.error_scale = 15.0;  // demand is tens of requests/s
  cfg.time.seasonal_period = p_.seasonal_epochs;
  cfg.time.score_horizon = 2;   // decisions bite after the provisioning lag
  agent_ = std::make_unique<core::SelfAwareAgent>("autoscaler", cfg);

  agent_->add_sensor("demand", [this] { return last_.arrival_rate; });
  agent_->add_sensor("sla", [this] { return last_.sla; });
  agent_->add_sensor("cost", [this] { return last_.cost; });
  agent_->add_sensor("capacity", [this] { return last_.capacity; });
  agent_->add_sensor("backlog", [this] { return last_.backlog; });
  agent_->add_sensor("utilisation", [this] { return last_.utilisation; });

  for (std::size_t i = 0; i < std::size(kDeltas); ++i) {
    const int d = kDeltas[i];
    agent_->add_action("delta" + std::to_string(d), [this, d] {
      const auto n = static_cast<long>(target_) + d;
      target_ = static_cast<std::size_t>(
          std::clamp<long>(n, 0, static_cast<long>(cluster_.size())));
    });
  }

  auto& goals = agent_->goals();
  goals.add_objective({"sla", core::utility::rising(0.0, 1.0), 2.0});
  goals.add_objective({"cost", core::utility::falling(0.0, p_.cost_scale),
                       1.0});
  agent_->set_goal_metrics({"sla", "cost"});

  switch (p_.variant) {
    case Variant::Static:
      agent_->set_policy(std::make_unique<core::FixedPolicy>(
          std::size(kDeltas) / 2));  // delta 0
      break;
    case Variant::Reactive: {
      auto rules =
          std::make_unique<core::RulePolicy>(std::size(kDeltas) / 2);
      const double target = p_.sla_target;
      rules->add_rule({"sla below target -> scale out",
                       [target](const core::KnowledgeBase& kb) {
                         return kb.number("sla", 1.0) < target;
                       },
                       /*delta+3*/ 4,
                       {"sla"}});
      rules->add_rule({"underutilised -> scale in",
                       [](const core::KnowledgeBase& kb) {
                         return kb.number("utilisation", 1.0) < 0.5;
                       },
                       /*delta-1*/ 1,
                       {"utilisation"}});
      agent_->set_policy(std::move(rules));
      break;
    }
    case Variant::SelfAware: {
      // Self-prediction: simulate each scaling action against the forecast
      // demand and learned node reliabilities, score with the goal model.
      auto model = [this](std::size_t action,
                          const core::KnowledgeBase& kb) -> core::MetricMap {
        const int d = kDeltas[action];
        const auto n = static_cast<long>(target_) + d;
        const auto k = static_cast<std::size_t>(
            std::clamp<long>(n, 0, static_cast<long>(cluster_.size())));
        (void)kb;
        return predict(k);
      };
      agent_->set_policy(std::make_unique<core::ModelBasedPolicy>(
          agent_->goals(), std::move(model),
          std::vector<std::string>{"forecast.demand", "backlog"}));
      break;
    }
  }
}

std::vector<std::size_t> Autoscaler::enrolment_order() const {
  std::vector<std::size_t> order(cluster_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (p_.variant != Variant::SelfAware || !agent_) return order;

  // Learned ranking: expected delivered capacity per unit cost, with a
  // prior that keeps unexplored nodes attractive enough to be tried.
  const core::SelfAwareAgent& agent = *agent_;
  const core::InteractionAwareness* ia = agent.interaction();
  if (ia == nullptr) return order;
  std::vector<double> score(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& n = cluster_.node(i);
    const double rel = ia->interactions(n.id) > 0 ? ia->reliability(n.id)
                                                  : 0.6;  // optimistic prior
    score[i] = rel * n.capacity / n.cost_per_s;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return score[a] > score[b];
                   });
  return order;
}

core::MetricMap Autoscaler::predict(std::size_t k) const {
  const auto order = enrolment_order();
  const core::SelfAwareAgent& agent = *agent_;
  const core::InteractionAwareness* ia = agent.interaction();
  double capacity = 0.0, cost = 0.0;
  for (std::size_t i = 0; i < std::min(k, order.size()); ++i) {
    const auto& n = cluster_.node(order[i]);
    const double rel =
        (ia && ia->interactions(n.id) > 0) ? ia->reliability(n.id) : 0.6;
    capacity += rel * n.capacity;
    cost += n.cost_per_s;
  }
  const double epoch_s = last_.duration > 0.0 ? last_.duration : 10.0;
  // Demand forecast from time awareness when warm, else last observation.
  // With provisioning lag, a fresh node only helps *next* epoch, so the
  // relevant demand is the two-epochs-ahead forecast.
  const core::KnowledgeBase& kb = agent.knowledge();
  double demand_rate = last_.arrival_rate;
  const core::TimeAwareness* ta = agent.time_awareness();
  if (ta != nullptr && kb.confidence("forecast.demand") >= 0.2) {
    // Trust the model for anticipation, but bound it to a plausible band
    // around the last observation: seasonal models occasionally misfire
    // right after a burst, and a wild forecast is worse than a stale one.
    demand_rate = std::clamp(ta->forecast("demand", 2),
                             0.6 * last_.arrival_rate,
                             1.6 * last_.arrival_rate);
  }
  const double offered = demand_rate * epoch_s + last_.backlog;
  const double service = capacity * epoch_s;
  const double sla = offered > 0.0 ? std::min(1.0, service / offered) : 1.0;
  return core::MetricMap{{"sla", sla}, {"cost", cost * epoch_s}};
}

CloudEpoch Autoscaler::run_epoch() {
  // Epoch-length span on the autoscaler's track; the agent's ODA spans
  // (decide-first) open it, the reward's outcome span closes the chain.
  auto span = p_.tracer != nullptr
                  ? p_.tracer->span(cluster_.now(), trace_subject_, n_epoch_)
                  : sim::Tracer::Span{};
  // Decide first (using knowledge from previous epochs), then live with it.
  agent_->step(cluster_.now());
  cluster_.enrol(enrolment_order(), target_);

  sim::Rng demand_rng(sim::mix64(p_.seed) ^ epochs_);
  const double rate = demand_.rate(cluster_.now(), 10.0, demand_rng);
  last_ = cluster_.run_epoch(rate);

  // Learn who actually delivered: one interaction record per enrolled node.
  for (const auto& o : cluster_.last_outcomes()) {
    agent_->record_interaction(cluster_.node(o.index).id, o.stayed_up,
                               o.delivered);
  }

  const core::MetricMap m{{"sla", last_.sla}, {"cost", last_.cost}};
  const double u = agent_->goals().utility(m);
  agent_->reward(u);

  ++epochs_;
  sla_.add(last_.sla);
  cost_.add(last_.cost);
  utility_.add(u);
  if (last_.sla < p_.sla_target) ++violations_;
  if (span) {
    span.arg(k_sla_, last_.sla);
    span.arg(k_cost_, last_.cost);
    span.end_at(cluster_.now());
  }
  return last_;
}

}  // namespace sa::cloud

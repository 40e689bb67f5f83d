#include "multicore/manager.hpp"

#include <cmath>

#include "learn/bandit.hpp"

namespace sa::multicore {

std::vector<ManagerAction> default_actions(const Platform& platform) {
  std::vector<ManagerAction> out;
  for (std::size_t lvl = 0; lvl < platform.freq_levels(); ++lvl) {
    for (Mapping m :
         {Mapping::Balanced, Mapping::PackBig, Mapping::PackLittle}) {
      ManagerAction a;
      a.freq_level = lvl;
      a.mapping = m;
      a.name = "f" + std::to_string(lvl) + "/" + mapping_name(m);
      out.push_back(std::move(a));
    }
  }
  return out;
}

const char* Manager::variant_name(Variant v) noexcept {
  switch (v) {
    case Variant::Static: return "static";
    case Variant::Reactive: return "reactive";
    case Variant::SelfAware: return "self-aware";
  }
  return "?";
}

Manager::Manager(Platform& platform, Params params)
    : platform_(platform), p_(params), actions_(default_actions(platform)) {
  if (p_.telemetry != nullptr) platform_.set_telemetry(p_.telemetry);
  if (p_.tracer != nullptr) {
    trace_subject_ = p_.tracer->bus().intern_subject("multicore.manager");
    n_epoch_ = p_.tracer->intern_name("epoch");
    k_utility_ = p_.tracer->intern_name("utility");
    k_power_ = p_.tracer->intern_name("mean_power");
  }
  build_agent();
}

void Manager::bind(sim::Engine& engine, double period,
                   std::function<void(double)> on_epoch) {
  if (period <= 0.0) period = p_.epoch_s;
  engine.every_tagged(
      sim::event_tag("sa.multicore.manager"), period,
      [this, period, on_epoch = std::move(on_epoch)] {
        const double u = run_epoch_for(period);
        if (on_epoch) on_epoch(u);
        return true;
      },
      /*order=*/1);
}

void Manager::build_agent() {
  core::AgentConfig cfg;
  cfg.seed = p_.seed;
  cfg.telemetry = p_.telemetry;
  cfg.tracer = p_.tracer;
  switch (p_.variant) {
    case Variant::Static:
      cfg.levels = core::LevelSet{};  // no awareness machinery at all
      break;
    case Variant::Reactive:
      cfg.levels = core::LevelSet::minimal();
      break;
    case Variant::SelfAware:
      cfg.levels = p_.levels;
      break;
  }
  // Forecast errors are judged relative to the sensed signals' magnitude
  // (tasks/s, watts), not the default unit scale.
  cfg.time.error_scale = 5.0;
  agent_ = std::make_unique<core::SelfAwareAgent>("multicore-mgr", cfg);

  // Sensors read the last harvested epoch.
  agent_->add_sensor("throughput", [this] { return stats_.throughput; });
  agent_->add_sensor("demand", [this] { return stats_.offered_gops; });
  agent_->add_sensor("latency", [this] { return stats_.p95_latency; });
  agent_->add_sensor("power", [this] { return stats_.mean_power; });
  agent_->add_sensor("queue", [this] { return stats_.mean_queue; });
  agent_->add_sensor("temp", [this] { return stats_.max_temp_c; });

  // Actions apply a whole configuration for the next epoch.
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    agent_->add_action(actions_[i].name, [this, i] { apply(actions_[i]); });
  }

  // Goals: throughput up, tail latency down, power down — with the cap as
  // a hard constraint (stakeholder non-negotiable).
  auto& goals = agent_->goals();
  goals.add_objective(
      {"throughput", core::utility::rising(0.0, p_.throughput_scale), 1.0});
  // Tail latency carries double weight: the motivating workloads are
  // latency-critical (interactive phase), and it is the metric a static
  // design-time choice cannot keep low across regimes.
  goals.add_objective(
      {"latency", core::utility::falling(0.0, 5.0 * p_.target_latency_s),
       2.0});
  goals.add_objective(
      {"power", core::utility::falling(1.0, 10.0), 1.0});
  // Backlog is a leading indicator the tail-latency metric saturates on:
  // once the queue is deep, every config's p95 looks equally bad, but the
  // queue's growth rate still separates configurations that recover from
  // ones that spiral.
  goals.add_objective({"queue", core::utility::falling(0.0, 40.0), 1.0});
  const double cap = p_.power_cap_w;
  goals.add_constraint({"power-cap",
                        [cap](const core::MetricMap& m) {
                          const auto it = m.find("power");
                          return it == m.end() || it->second <= cap;
                        },
                        /*hard=*/true});
  agent_->set_goal_metrics({"throughput", "latency", "power", "queue"});

  switch (p_.variant) {
    case Variant::Static:
      agent_->set_policy(
          std::make_unique<core::FixedPolicy>(p_.static_action));
      break;
    case Variant::Reactive: {
      // Threshold rules over *current* readings only — no models.
      auto rules = std::make_unique<core::RulePolicy>(
          /*default: mid frequency, balanced*/ std::size_t{3});
      const double target = p_.target_latency_s;
      rules->add_rule({"power over cap -> min freq, pack little",
                       [cap](const core::KnowledgeBase& kb) {
                         return kb.number("power") > cap;
                       },
                       /*f0/pack-little*/ 2,
                       {"power"}});
      rules->add_rule({"latency over target -> max freq, pack big",
                       [target](const core::KnowledgeBase& kb) {
                         return kb.number("latency") > target;
                       },
                       /*f3/pack-big*/ 10,
                       {"latency"}});
      agent_->set_policy(std::move(rules));
      break;
    }
    case Variant::SelfAware: {
      // Self-prediction (Kounev et al. [30][31]; Agarwal's introspection
      // [16]): the agent holds an explicit self-model — the chip's
      // capacity/power characteristics plus the *sensed* workload (offered
      // work, arrival rate, backlog, and the time-awareness forecast of
      // demand) — simulates every candidate configuration against it, and
      // picks the predicted-utility maximiser. No trial-and-error on the
      // live system, which is exactly what distinguishes model-based
      // self-awareness from the reactive baseline.
      auto model = [this](std::size_t action,
                          const core::KnowledgeBase& kb) -> core::MetricMap {
        return predict(actions_[action], kb);
      };
      agent_->set_policy(std::make_unique<core::ModelBasedPolicy>(
          agent_->goals(), std::move(model),
          std::vector<std::string>{"demand", "forecast.demand", "queue"}));
      break;
    }
  }
}

core::MetricMap Manager::predict(const ManagerAction& a,
                                 const core::KnowledgeBase& kb) const {
  // Eligible capacity and idle/active power under configuration `a`.
  // With the thermal model on, the self-model also predicts throttling:
  // a core whose steady-state temperature would exceed the envelope
  // duty-cycles between the requested and the minimum frequency, so its
  // *sustained* speed and power are the duty-weighted mixture. Constants
  // come from the platform's datasheet (config()).
  const auto& pc = platform_.config();
  double cap = 0.0, leak = 0.0, dyn_full = 0.0, eligible_cap = 0.0;
  double hottest_c = pc.ambient_c;  // predicted hottest eligible core
  const double freq = platform_.freq_ghz(a.freq_level);
  const double f_min = platform_.freq_ghz(0);
  // Utilisation estimate for the thermal model: sensed demand over this
  // configuration's nominal capacity (the busy cores are what heat up).
  double nominal_cap = 0.0;
  for (std::size_t c = 0; c < platform_.cores(); ++c) {
    const auto& spec = platform_.spec(c);
    const bool eligible = a.mapping == Mapping::Balanced ||
                          (a.mapping == Mapping::PackBig && spec.big) ||
                          (a.mapping == Mapping::PackLittle && !spec.big);
    if (eligible) nominal_cap += spec.ipc * freq;
  }
  const double util_guess =
      nominal_cap > 0.0
          ? std::clamp(kb.number("demand") / nominal_cap, 0.2, 1.0)
          : 1.0;
  for (std::size_t c = 0; c < platform_.cores(); ++c) {
    const auto& spec = platform_.spec(c);
    const bool eligible = a.mapping == Mapping::Balanced ||
                          (a.mapping == Mapping::PackBig && spec.big) ||
                          (a.mapping == Mapping::PackLittle && !spec.big);
    cap += spec.ipc * freq;  // spill-over: every core can ultimately help
    if (!eligible) {
      leak += spec.static_w * freq * freq;
      continue;
    }
    double duty = 1.0;  // fraction of time at the requested frequency
    if (pc.thermal) {
      const double p_hot_now =
          spec.static_w * freq * freq +
          spec.dyn_coeff * freq * freq * freq * util_guess;
      hottest_c = std::max(
          hottest_c,
          std::min(pc.throttle_c,
                   pc.ambient_c + pc.heat_per_w * p_hot_now / pc.cool_rate));
      const double t_mid = 0.5 * (pc.throttle_c + pc.recover_c);
      const double p_hot = spec.static_w * freq * freq +
                           spec.dyn_coeff * freq * freq * freq * util_guess;
      const double p_cold =
          spec.static_w * f_min * f_min +
          spec.dyn_coeff * f_min * f_min * f_min * util_guess;
      const double sink = pc.cool_rate * (t_mid - pc.ambient_c);
      const double heat_rate = pc.heat_per_w * p_hot - sink;
      const double cool_rate = sink - pc.heat_per_w * p_cold;
      if (heat_rate > 0.0 && cool_rate > 0.0) {
        duty = cool_rate / (cool_rate + heat_rate);
      } else if (heat_rate > 0.0) {
        duty = 0.0;  // cannot even cool at f_min: clamped ~always
      }
      // State awareness: if the chip is already near the throttle point,
      // a heating configuration clamps almost immediately — the sustained
      // duty only applies from a cool start.
      if (heat_rate > 0.0) {
        const double headroom =
            std::clamp((pc.throttle_c - stats_.max_temp_c) /
                           (pc.throttle_c - pc.recover_c),
                       0.0, 1.0);
        duty = std::min(duty, headroom);
      }
    }
    const double eff_freq = duty * freq + (1.0 - duty) * f_min;
    eligible_cap += spec.ipc * eff_freq;
    leak += spec.static_w * eff_freq * eff_freq;
    dyn_full += spec.dyn_coeff * eff_freq * eff_freq * eff_freq;
  }
  if (eligible_cap <= 0.0) eligible_cap = cap;

  // Sensed workload: offered giga-ops/s, arrival rate, carried queue. The
  // demand forecast from time awareness is preferred once it is warm.
  double demand = kb.number("demand");
  if (kb.confidence("forecast.demand") > 0.3) {
    demand = std::max(0.0, kb.number("forecast.demand", demand));
  }
  const double rate = stats_.duration > 0.0
                          ? static_cast<double>(stats_.arrived) /
                                stats_.duration
                          : 0.0;
  const double mean_work = rate > 1e-9 ? demand / rate : 0.2;

  const double rho = std::min(demand / eligible_cap, 0.999);
  // A task occupies one core; approximate the mean service time by the
  // per-eligible-core speed, and the queueing delay by Sakasegawa's M/M/c
  // approximation (the platform really is c parallel servers — an M/M/1
  // view would be catastrophically pessimistic at moderate load).
  std::size_t servers = 0;
  for (std::size_t c = 0; c < platform_.cores(); ++c) {
    const auto& spec = platform_.spec(c);
    const bool eligible = a.mapping == Mapping::Balanced ||
                          (a.mapping == Mapping::PackBig && spec.big) ||
                          (a.mapping == Mapping::PackLittle && !spec.big);
    if (eligible) ++servers;
  }
  if (servers == 0) servers = platform_.cores();
  const double cs = static_cast<double>(servers);
  const double per_core = eligible_cap / cs;
  const double service = mean_work / std::max(per_core, 1e-9);
  const double wait = service *
                      std::pow(rho, std::sqrt(2.0 * (cs + 1.0))) /
                      (cs * (1.0 - rho));
  const double backlog_gops = kb.number("queue") * mean_work;
  const double drain = backlog_gops / std::max(eligible_cap, 1e-9);
  // p95 of a roughly exponential sojourn is ~3x its mean.
  const double p95 = 3.0 * (service + wait) + drain;

  const double util = std::min(1.0, demand / eligible_cap);
  const double power = leak + dyn_full * util;
  const double backlog_rate =
      stats_.duration > 0.0 ? backlog_gops / stats_.duration : 0.0;
  const double throughput =
      mean_work > 1e-9
          ? std::min(rate + backlog_rate / std::max(mean_work, 1e-9),
                     eligible_cap / mean_work)
          : rate;
  // Predicted queue depth after one more epoch under this configuration.
  const double epoch = stats_.duration > 0.0 ? stats_.duration : p_.epoch_s;
  const double queue_next = std::max(
      0.0, kb.number("queue") +
               (demand - eligible_cap) * epoch / std::max(mean_work, 1e-9));

  (void)hottest_c;
  return core::MetricMap{{"throughput", throughput},
                         {"latency", p95},
                         {"power", power},
                         {"queue", queue_next}};
}

void Manager::apply(const ManagerAction& a) {
  platform_.set_all_freq(a.freq_level);
  platform_.set_mapping(a.mapping);
}

double Manager::run_epoch() { return run_epoch_for(p_.epoch_s); }

double Manager::run_epoch_for(double secs) {
  // Epoch-length span on the manager's track; the agent's ODA spans (on
  // its own track) land at the epoch's end time, inside this interval.
  const double t0 = platform_.now();
  auto span = p_.tracer != nullptr
                  ? p_.tracer->span(t0, trace_subject_, n_epoch_)
                  : sim::Tracer::Span{};
  platform_.run_for(secs);
  stats_ = platform_.harvest();

  // Measured utility is computed here, from the same goal model, for every
  // variant — including Static, which has no goal-awareness process of its
  // own. It settles the *previous* decision (which produced this epoch)
  // before the agent takes the next one.
  const core::MetricMap m{{"throughput", stats_.throughput},
                          {"latency", stats_.p95_latency},
                          {"power", stats_.mean_power},
                          {"queue", stats_.mean_queue}};
  const double u = agent_->goals().utility(m);
  agent_->reward(u);
  agent_->step(platform_.now());

  ++epochs_;
  utility_.add(u);
  power_.add(stats_.mean_power);
  latency_.add(stats_.p95_latency);
  throughput_.add(stats_.throughput);
  if (stats_.mean_power > p_.power_cap_w) ++cap_violations_;
  if (span) {
    span.arg(k_utility_, u);
    span.arg(k_power_, stats_.mean_power);
    span.end_at(platform_.now());
  }
  return u;
}

}  // namespace sa::multicore

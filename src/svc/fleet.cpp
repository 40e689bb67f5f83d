#include "svc/fleet.hpp"

#include <cmath>

#include "learn/bandit.hpp"

namespace sa::svc {

CameraFleet::CameraFleet(Network& net, Params p)
    : net_(net), p_(p), last_(net.cameras()) {
  if (p_.telemetry != nullptr) net_.set_telemetry(p_.telemetry);
  if (p_.tracer != nullptr) {
    trace_subject_ = p_.tracer->bus().intern_subject("svc.fleet");
    n_epoch_ = p_.tracer->intern_name("epoch");
    k_coverage_ = p_.tracer->intern_name("coverage");
    k_messages_ = p_.tracer->intern_name("messages");
    k_utility_ = p_.tracer->intern_name("global_utility");
  }
  if (p_.mode == Mode::Homogeneous) {
    for (std::size_t c = 0; c < net_.cameras(); ++c) {
      net_.set_strategy(c, p_.fixed);
    }
    return;
  }
  agents_.reserve(net_.cameras());
  for (std::size_t c = 0; c < net_.cameras(); ++c) {
    core::AgentConfig cfg;
    cfg.levels = p_.levels;
    cfg.seed = p_.seed + c;
    cfg.telemetry = p_.telemetry;
    cfg.tracer = p_.tracer;
    auto agent = std::make_unique<core::SelfAwareAgent>(
        "cam" + std::to_string(c), cfg);

    agent->add_sensor("tracking", [this, c] { return last_[c].tracking; });
    agent->add_sensor("messages", [this, c] { return last_[c].messages; });
    agent->add_sensor("lost", [this, c] { return last_[c].lost; });
    agent->add_sensor("owned", [this, c] {
      return static_cast<double>(last_[c].owned_now);
    });

    for (std::size_t s = 0; s < kStrategies; ++s) {
      agent->add_action(strategy_name(static_cast<Strategy>(s)),
                        [this, c, s] {
                          net_.set_strategy(c, static_cast<Strategy>(s));
                        });
    }

    // Local goals: track well, lose little, talk little. Scales are per
    // epoch_steps of accumulation.
    const double steps = static_cast<double>(p_.epoch_steps);
    auto& goals = agent->goals();
    goals.add_objective(
        {"tracking", core::utility::rising(0.0, 3.0 * steps), 2.0});
    goals.add_objective(
        {"messages", core::utility::falling(0.0, 2.0 * steps), 1.0});
    goals.add_objective({"lost", core::utility::falling(0.0, 5.0), 1.0});
    agent->set_goal_metrics({"tracking", "messages", "lost"});

    agent->set_policy(std::make_unique<core::BanditPolicy>(
        std::make_unique<learn::DiscountedUcb>(kStrategies, 0.99)));
    agents_.push_back(std::move(agent));
  }
}

NetworkEpoch CameraFleet::run_epoch() {
  net_.run(p_.epoch_steps);
  return finish_epoch();
}

void CameraFleet::bind(sim::Engine& engine, double step_period,
                       std::function<void(const NetworkEpoch&)> on_epoch) {
  engine.every_tagged(
      sim::event_tag("sa.svc.fleet"), step_period,
      [this, on_epoch = std::move(on_epoch)] {
        net_.step();
        ++bound_steps_;
        if (bound_steps_ % p_.epoch_steps == 0) {
          const NetworkEpoch e = finish_epoch();
          if (on_epoch) on_epoch(e);
        }
        return true;
      },
      /*order=*/0);
}

NetworkEpoch CameraFleet::finish_epoch() {
  // Epoch span on the fleet's own track; camera agents emit their ODA
  // spans inside it (on their own tracks, at t = epoch index).
  auto span = p_.tracer != nullptr
                  ? p_.tracer->span(static_cast<double>(epoch_),
                                    trace_subject_, n_epoch_)
                  : sim::Tracer::Span{};
  for (std::size_t c = 0; c < net_.cameras(); ++c) {
    last_[c] = net_.harvest_camera(c);
  }
  if (p_.mode == Mode::Learning) {
    for (std::size_t c = 0; c < net_.cameras(); ++c) {
      auto& agent = *agents_[c];
      agent.step(static_cast<double>(epoch_));
      // Reward: the camera's own market utility, normalised per step.
      const double u =
          last_[c].utility(net_.params().comm_weight,
                           net_.params().handover_bonus) /
          static_cast<double>(p_.epoch_steps);
      agent.reward(u);
    }
  }
  ++epoch_;
  const NetworkEpoch e = net_.harvest_network();
  coverage_.add(e.coverage);
  messages_.add(e.messages);
  global_utility_.add(e.global_utility);
  if (span) {
    span.arg(k_coverage_, e.coverage);
    span.arg(k_messages_, e.messages);
    span.arg(k_utility_, e.global_utility);
  }
  return e;
}

std::vector<std::size_t> CameraFleet::strategy_histogram() const {
  std::vector<std::size_t> hist(kStrategies, 0);
  for (std::size_t c = 0; c < net_.cameras(); ++c) {
    ++hist[static_cast<std::size_t>(net_.strategy(c))];
  }
  return hist;
}

double CameraFleet::diversity() const {
  const auto hist = strategy_histogram();
  const double n = static_cast<double>(net_.cameras());
  double h = 0.0;
  for (std::size_t count : hist) {
    if (count == 0) continue;
    const double pr = static_cast<double>(count) / n;
    h -= pr * std::log(pr);
  }
  return h / std::log(static_cast<double>(kStrategies));
}

}  // namespace sa::svc

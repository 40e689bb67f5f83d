// Example: several self-aware agents cooperating through shared knowledge.
//
// A tiny micro-grid: three houses each run their own self-aware battery
// controller (charge on cheap power, discharge on expensive power), and a
// district coordinator — running ten times slower — watches the houses'
// *public* knowledge to track the neighbourhood load. Nobody polls anyone:
// the AgentRuntime steps every agent at its own period on the simulation
// engine and exchanges public snapshots on a schedule.
//
// Run: ./build/examples/multi_agent
#include <cstdio>
#include <memory>
#include <vector>

#include "core/runtime.hpp"
#include "learn/bandit.hpp"
#include "sim/rng.hpp"

int main() {
  using namespace sa;

  sim::Engine engine;
  core::AgentRuntime runtime(engine);
  sim::Rng world_rng(2031);

  // --- The world: a price signal and three noisy household loads ----------
  double price = 0.2;
  engine.every(1.0, [&] {
    // Price follows a daily-ish square wave with noise.
    const double phase = std::fmod(engine.now(), 240.0);
    price = (phase < 120.0 ? 0.1 : 0.4) + world_rng.uniform(-0.02, 0.02);
    return true;
  });

  struct House {
    std::string name;
    double load = 1.0;     // kW draw from the grid
    double battery = 5.0;  // kWh stored
    double flow = 0.0;     // + charging, - discharging
    std::unique_ptr<core::SelfAwareAgent> agent;
  };
  std::vector<House> houses(3);
  const char* names[] = {"maple", "oak", "pine"};

  for (std::size_t i = 0; i < houses.size(); ++i) {
    auto& h = houses[i];
    h.name = names[i];
    core::AgentConfig cfg;
    cfg.seed = 100 + i;
    h.agent = std::make_unique<core::SelfAwareAgent>(h.name, cfg);
    h.agent->add_sensor("price", [&price] { return price; });
    h.agent->add_sensor("battery", [&h] { return h.battery; });
    h.agent->add_sensor("load", [&h] { return h.load; });

    h.agent->add_action("charge", [&h] { h.flow = 1.0; });
    h.agent->add_action("hold", [&h] { h.flow = 0.0; });
    h.agent->add_action("discharge", [&h] { h.flow = -1.0; });

    // Goals: minimise grid cost, keep the battery healthy (2..8 kWh band).
    h.agent->goals().add_objective("cost", core::utility::falling(0.0, 1.0),
                                   2.0);
    h.agent->goals().add_objective("battery",
                                   core::utility::target(5.0, 3.0), 1.0);
    h.agent->set_policy(std::make_unique<core::BanditPolicy>(
        std::make_unique<learn::DiscountedUcb>(3, 0.995)));

    runtime.schedule(*h.agent, 1.0, [&h, &price] {
      return h.agent->current_utility();
    });
  }

  // Physics + per-house cost metric, once per second.
  engine.every(1.0, [&] {
    for (auto& h : houses) {
      h.load = 0.8 + 0.4 * world_rng.uniform();
      h.battery = std::clamp(h.battery + h.flow, 0.0, 10.0);
      const double grid_draw = std::max(0.0, h.load + h.flow);
      // "cost" is what goal awareness reads next step.
      core::KnowledgeBase& kb = h.agent->knowledge();
      kb.put_number(kb.key("cost"), grid_draw * price, engine.now());
    }
    return true;
  });

  // --- The coordinator: slower loop, sees only shared public knowledge ----
  core::AgentConfig ccfg;
  ccfg.seed = 7;
  core::SelfAwareAgent coordinator("district", ccfg);
  runtime.schedule(coordinator, 10.0);
  std::vector<core::SelfAwareAgent*> everyone{&coordinator};
  for (auto& h : houses) everyone.push_back(h.agent.get());
  runtime.schedule_exchange(everyone, 5.0);

  engine.run_until(960.0);  // four price cycles

  // --- What happened -------------------------------------------------------
  std::printf("district coordinator's view (via shared public knowledge):\n");
  const core::KnowledgeBase& seen = coordinator.knowledge();
  for (const auto& h : houses) {
    const auto load = seen.find("shared." + h.name + ".load");
    std::printf("  %-6s load=%.2f kW  battery=%.1f kWh  (conf %.2f)\n",
                h.name.c_str(), seen.number(load),
                seen.number(seen.find("shared." + h.name + ".battery")),
                seen.confidence(load));
  }
  std::printf("\nitems exchanged: %zu, coordinator steps: %zu, "
              "house steps each: %zu\n",
              runtime.items_exchanged(), coordinator.steps(),
              houses[0].agent->steps());
  std::printf("\none house explains itself:\n  %s\n",
              houses[0].agent->why_last().c_str());
  return 0;
}

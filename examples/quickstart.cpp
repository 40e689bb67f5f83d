// Quickstart: a minimal self-aware agent in ~60 lines.
//
// The agent controls a trivial "heater": the action space is {off, low,
// high}, the environment is a room whose temperature drifts towards an
// outside temperature that changes halfway through the run. The agent
//   * senses temperature and power,
//   * holds an explicit goal model (comfort band vs energy),
//   * learns action values with a bandit,
//   * and can explain every decision it takes.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "core/agent.hpp"
#include "learn/bandit.hpp"

int main() {
  using namespace sa;

  // --- A tiny environment -------------------------------------------------
  double temperature = 12.0, outside = 5.0, heat = 0.0;
  auto env_step = [&] {
    temperature += 0.2 * (outside - temperature) + 2.0 * heat;
  };

  // --- The self-aware agent ----------------------------------------------
  core::AgentConfig cfg;
  cfg.seed = 2026;
  core::SelfAwareAgent agent("thermostat", cfg);

  agent.add_sensor("temperature", [&] { return temperature; });
  agent.add_sensor("power", [&] { return heat; });

  agent.add_action("off", [&] { heat = 0.0; });
  agent.add_action("low", [&] { heat = 0.5; });
  agent.add_action("high", [&] { heat = 1.0; });

  // Stakeholder goals: 21 C +/- 3, using as little power as possible.
  agent.goals().add_objective("temperature",
                              core::utility::target(21.0, 3.0), 2.0);
  agent.goals().add_objective("power", core::utility::falling(0.0, 1.0),
                              1.0);

  agent.set_policy(std::make_unique<core::BanditPolicy>(
      std::make_unique<learn::DiscountedUcb>(3)));

  // --- Run: observe-decide-act, with a mid-run environment change ---------
  for (int t = 0; t < 600; ++t) {
    if (t == 300) outside = 18.0;  // spring arrives
    agent.step(t);
    env_step();
    agent.reward(agent.current_utility());
    if ((t + 1) % 100 == 0) {
      std::printf("t=%3d outside=%4.1f temp=%5.2f utility=%.2f\n", t + 1,
                  outside, temperature, agent.current_utility());
    }
  }

  // --- Introspection: what does the agent know, and why did it act? -------
  std::printf("\nThe agent's self-knowledge (selected):\n");
  const core::KnowledgeBase& kb = agent.knowledge();
  for (const auto& key :
       {"temperature", "forecast.temperature", "goal.utility",
        "stimulus.temperature.baseline"}) {
    const auto id = kb.find(key);
    std::printf("  %-30s = %7.3f (confidence %.2f)\n", key, kb.number(id),
                kb.confidence(id));
  }
  std::printf("\nThe agent describes itself:\n  %s\n",
              agent.describe().c_str());
  std::printf("\nWhy it just acted:\n  %s\n",
              agent.why_last().c_str());
  std::printf("\nDecisions explained: %zu of %zu (coverage %.0f%%)\n",
              agent.explainer().size(), agent.explainer().decisions(),
              agent.explainer().coverage() * 100.0);
  return 0;
}

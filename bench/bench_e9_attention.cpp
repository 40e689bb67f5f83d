// E9 — attention under a monitoring budget (paper Section V;
// Preden et al. [55]).
//
// Claim operationalised: "resource-constrained systems must determine, for
// themselves, how to direct their limited resources, given the vast set of
// possible things they could attend to." An agent watches 16 signals but
// may sample only B per step. Four of the signals are dynamic (they drift
// and jump); twelve are near-constant housekeeping. We measure how stale
// the agent's knowledge is — the mean absolute error between each signal's
// true current value and the agent's latest knowledge of it — under
// uniform (round-robin), random, and self-aware (volatility-driven
// adaptive) attention, across budgets.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/agent.hpp"
#include "exp/harness.hpp"
#include "sim/report.hpp"
#include "sim/stats.hpp"

namespace {

using namespace sa;

constexpr int kSteps = 2000;
constexpr std::size_t kSignals = 16;
constexpr std::size_t kDynamic = 4;
const std::vector<std::uint64_t> kSeeds{91, 92, 93};

struct World {
  std::vector<double> value;
  sim::Rng rng;
  explicit World(std::uint64_t seed) : value(kSignals, 0.0), rng(seed) {
    for (std::size_t s = 0; s < kSignals; ++s) {
      value[s] = rng.uniform(0.0, 10.0);
    }
  }
  void step(int t) {
    // Dynamic signals: sinusoid + occasional jumps. Static: tiny jitter.
    for (std::size_t s = 0; s < kSignals; ++s) {
      if (s < kDynamic) {
        value[s] = 10.0 +
                   5.0 * std::sin(0.05 * t + static_cast<double>(s)) +
                   (rng.chance(0.01) ? rng.uniform(-8.0, 8.0) : 0.0);
      } else {
        value[s] += rng.normal(0.0, 0.01);
      }
    }
  }
};

double run(core::AttentionManager::Strategy strategy, std::size_t budget,
           std::uint64_t seed) {
  World world(seed);
  core::AgentConfig cfg;
  cfg.seed = seed;
  cfg.levels = core::LevelSet::minimal();
  cfg.attention_strategy = strategy;
  cfg.attention_budget = budget;
  core::SelfAwareAgent agent("watcher", cfg);
  for (std::size_t s = 0; s < kSignals; ++s) {
    agent.add_sensor("sig" + std::to_string(s),
                     [&world, s] { return world.value[s]; });
  }

  sim::RunningStats staleness;
  for (int t = 0; t < kSteps; ++t) {
    world.step(t);
    agent.step(t);
    if (t < 100) continue;  // warm-up
    for (std::size_t s = 0; s < kSignals; ++s) {
      const core::KnowledgeBase& kb = agent.knowledge();
      const double known = kb.number(kb.find("sig" + std::to_string(s)));
      staleness.add(std::fabs(known - world.value[s]));
    }
  }
  return staleness.mean();
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h("e9_attention", argc, argv);
  std::cout << "E9: directing a limited monitoring budget over " << kSignals
            << " signals (" << kDynamic
            << " dynamic, rest near-constant). Metric: mean |known - true| "
               "across all signals (lower is better); "
            << h.seeds_for(kSeeds).size() << " seeds.\n\n";

  using Strategy = core::AttentionManager::Strategy;
  const std::vector<std::size_t> budgets{2, 4, 8, 16};
  const std::vector<std::pair<std::string, Strategy>> strategies{
      {"rr", Strategy::RoundRobin},
      {"random", Strategy::Random},
      {"adaptive", Strategy::Adaptive}};

  exp::Grid g;
  g.name = "e9";
  g.seeds = kSeeds;
  for (const auto budget : budgets) {
    for (const auto& [label, strategy] : strategies) {
      g.variants.push_back(label + "@" + std::to_string(budget));
    }
  }
  g.task = [&](const exp::TaskContext& ctx) -> exp::TaskOutput {
    const std::size_t budget = budgets[ctx.variant / strategies.size()];
    const auto strategy = strategies[ctx.variant % strategies.size()].second;
    return {{{"staleness", run(strategy, budget, ctx.seed)}}};
  };
  const auto res = h.run(std::move(g));

  sim::Table t("E9.1  knowledge staleness by attention strategy and budget",
               {"budget", "round-robin", "random", "adaptive",
                "adaptive_gain"});
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    const std::size_t base = b * strategies.size();
    const double rr = res.mean(base + 0, "staleness");
    const double rnd = res.mean(base + 1, "staleness");
    const double ad = res.mean(base + 2, "staleness");
    const double gain = ad > 1e-12 ? rr / ad : 1.0;
    t.add_row({static_cast<std::int64_t>(budgets[b]), rr, rnd, ad, gain});
  }
  t.print(std::cout);
  std::cout << "adaptive_gain = round-robin error / adaptive error "
               "(>1 means self-aware attention wins).\n";
  return h.finish();
}

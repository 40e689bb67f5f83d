// E6 — meta-self-awareness pays off under structural drift
// (paper Section IV; Morin [42]; Cox's metacognitive loop [27]).
//
// Claim operationalised: when the environment changes *permanently* (not a
// recurring phase mix), an agent whose meta level watches its own goal
// utility and resets stale learned models recovers faster than the same
// agent without a meta level; a discount-forgetting learner is the
// established non-meta alternative and lands in between.
//
// Environment: a 6-armed reward landscape whose best arm moves twice
// during the run (one-way drift). The agent's policy is an ordinary
// (non-discounted) bandit; only the meta level differs across rows.
//
// Table 1: mean reward per drift era and overall regret vs oracle.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.hpp"
#include "exp/harness.hpp"
#include "learn/bandit.hpp"
#include "sim/report.hpp"
#include "sim/stats.hpp"

namespace {

using namespace sa;

constexpr int kSteps = 3000;
constexpr int kEraLen = 1000;  // best arm moves at 1000 and 2000
constexpr std::size_t kArms = 6;
const std::vector<std::uint64_t> kSeeds{61, 62, 63, 64, 65};

/// Reward means per era: the optimum migrates and old values mislead.
double arm_mean(std::size_t arm, int era) {
  const std::size_t best = (static_cast<std::size_t>(era) * 2) % kArms;
  if (arm == best) return 0.9;
  // The previous era's best stays *decent* — a trap for stale values.
  const std::size_t prev =
      (static_cast<std::size_t>(era + 2) * 2) % kArms;
  if (arm == prev && era > 0) return 0.6;
  return 0.3;
}

struct Config {
  std::string name;
  bool meta;
  bool discounted;
};

exp::TaskOutput run(const Config& cfg, std::uint64_t seed) {
  core::AgentConfig ac;
  ac.seed = seed;
  ac.levels = cfg.meta
                  ? core::LevelSet{core::Level::Stimulus, core::Level::Goal,
                                   core::Level::Meta}
                  : core::LevelSet{core::Level::Stimulus, core::Level::Goal};
  // Fast drift response: this scenario is exactly the one the meta knobs
  // exist for (one-way structural change).
  ac.meta.ph_delta = 0.02;
  ac.meta.ph_lambda = 3.0;
  ac.meta.grace_updates = 32;
  core::SelfAwareAgent agent("driftee", ac);

  double last_reward = 0.0;
  agent.add_sensor("reward", [&] { return last_reward; });
  for (std::size_t a = 0; a < kArms; ++a) {
    agent.add_action("arm" + std::to_string(a), [] {});
  }
  agent.goals().add_objective("reward", core::utility::rising(0.0, 1.0), 1.0);

  std::unique_ptr<learn::Bandit> bandit;
  if (cfg.discounted) {
    bandit = std::make_unique<learn::DiscountedUcb>(kArms, 0.99);
  } else {
    bandit = std::make_unique<learn::EpsilonGreedy>(kArms, 0.1);
  }
  agent.set_policy(std::make_unique<core::BanditPolicy>(std::move(bandit)));

  sim::Rng env(sim::mix64(seed) ^ 0xe6);
  sim::RunningStats era[3], overall;
  for (int t = 0; t < kSteps; ++t) {
    const int e = t / kEraLen;
    const core::Decision& d = agent.step(t);
    const double r =
        env.chance(arm_mean(d.action_index, e)) ? 1.0 : 0.0;
    last_reward = r;
    agent.reward(r);
    era[e].add(r);
    overall.add(r);
  }
  return {{{"era0", era[0].mean()},
           {"era1", era[1].mean()},
           {"era2", era[2].mean()},
           {"overall", overall.mean()}}};
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h("e6_meta", argc, argv);
  std::cout << "E6: recovering from structural drift — meta level vs fixed "
               "vs discount-forgetting. Best arm moves at steps 1000 and "
               "2000; oracle mean reward is 0.9.\n\n";

  const std::vector<Config> configs{
      {"no meta (fixed eps-greedy)", false, false},
      {"discounted UCB (forgetting)", false, true},
      {"meta-self-aware (drift reset)", true, false},
  };

  exp::Grid g;
  g.name = "e6";
  for (const auto& cfg : configs) g.variants.push_back(cfg.name);
  g.seeds = kSeeds;
  g.task = [&configs](const exp::TaskContext& ctx) {
    return run(configs[ctx.variant], ctx.seed);
  };
  const auto res = h.run(std::move(g));

  sim::Table t("E6.1  mean reward by drift era",
               {"agent", "era0", "era1", "era2", "overall", "regret"});
  for (std::size_t v = 0; v < res.variants.size(); ++v) {
    const double overall = res.mean(v, "overall");
    t.add_row({res.variants[v], res.mean(v, "era0"), res.mean(v, "era1"),
               res.mean(v, "era2"), overall, 0.9 - overall});
  }
  t.print(std::cout);
  return h.finish();
}

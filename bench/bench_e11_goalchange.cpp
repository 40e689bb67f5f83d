// E11 — run-time goal change (paper, Sections I & IV).
//
// "Increasingly, those interacting with or impacted by systems are not
// well-known until after deployment" — stakeholder priorities shift while
// the system runs. Because the framework represents goals as an explicit,
// mutable GoalModel, a self-aware system responds to a re-weighting
// *without re-learning anything*: its self-model predictions are simply
// re-scored under the new preferences. A policy that had to learn action
// values from scalar rewards must instead re-learn, and a static
// configuration never moves.
//
// Scenario: steady multicore workload; at epoch 600 of 1200 the
// stakeholder flips from performance-first (latency weight 3) to
// energy-first (power weight 3).
//
// Table 1: the measured per-configuration trade-off space with its Pareto
//          front, and the point each goal regime selects (the preferred
//          point moves along an unchanged frontier).
// Table 2: utility around the change for static / value-learning /
//          model-predictive managers, plus epochs-to-recover.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/pareto.hpp"
#include "core/policy.hpp"
#include "exp/harness.hpp"
#include "learn/bandit.hpp"
#include "multicore/manager.hpp"
#include "sim/report.hpp"
#include "sim/stats.hpp"

namespace {

using namespace sa;
using namespace sa::multicore;

constexpr double kRate = 25.0, kWork = 0.15, kDeadline = 0.8;
constexpr int kEpochs = 1200;
constexpr int kChangeAt = 600;
const std::vector<std::uint64_t> kSeeds{111, 112, 113};
/// The goal model's metric ids: main's objectives intern the metrics in
/// this order.
enum : core::MetricId { kThroughput, kLatency, kPower, kQueue };

void set_regime(core::GoalModel& goals, bool energy_first) {
  goals.set_weight("latency", energy_first ? 0.5 : 3.0);
  goals.set_weight("power", energy_first ? 3.0 : 0.5);
}

/// Measures each configuration's steady-state metrics on this workload.
std::vector<core::ParetoPoint> measure_configs() {
  Platform probe(PlatformConfig::big_little(2, 4), 1);
  const auto actions = default_actions(probe);
  std::vector<core::ParetoPoint> points;
  for (std::size_t a = 0; a < actions.size(); ++a) {
    Platform p(PlatformConfig::big_little(2, 4), 77);
    p.set_all_freq(actions[a].freq_level);
    p.set_mapping(actions[a].mapping);
    p.set_workload(kRate, kWork, kDeadline);
    p.run_for(10.0);
    p.harvest();  // discard warm-up
    p.run_for(20.0);
    const auto s = p.harvest();
    points.push_back({actions[a].name,
                      {s.throughput, s.p95_latency, s.mean_power,
                       s.mean_queue}});
  }
  return points;
}

enum class Kind { Static, ValueLearning, ModelPredictive };

exp::TaskOutput run(Kind kind, std::uint64_t seed, double post_target) {
  Platform platform(PlatformConfig::big_little(2, 4), seed);
  platform.set_workload(kRate, kWork, kDeadline);
  Manager::Params p;
  p.variant = kind == Kind::Static ? Manager::Variant::Static
                                   : Manager::Variant::SelfAware;
  p.seed = seed;
  Manager mgr(platform, p);
  if (kind == Kind::ValueLearning) {
    // Same sensing, but decisions learned from scalar utility rewards
    // instead of predicted from the self-model.
    const std::size_t arms = mgr.actions().size();
    mgr.agent().set_policy(std::make_unique<core::BanditPolicy>(
        std::make_unique<learn::DiscountedUcb>(arms, 0.99)));
  }
  set_regime(mgr.agent().goals(), /*energy_first=*/false);

  sim::RunningStats before, after;
  int recovery_epochs = -1;  // epochs after the change to reach 90% of
                             // the post-change steady level
  for (int e = 0; e < kEpochs; ++e) {
    if (e == kChangeAt) {
      set_regime(mgr.agent().goals(), /*energy_first=*/true);
    }
    const double u = mgr.run_epoch();
    (e < kChangeAt ? before : after).add(u);
    if (e >= kChangeAt && recovery_epochs < 0 && u >= 0.9 * post_target) {
      recovery_epochs = e - kChangeAt;
    }
  }
  return {{{"before", before.mean()},
           {"after", after.mean()},
           {"recovery_epochs",
            recovery_epochs < 0 ? static_cast<double>(kEpochs)
                                : static_cast<double>(recovery_epochs)}}};
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h("e11_goalchange", argc, argv);
  std::cout << "E11: the stakeholder flips from performance-first to "
               "energy-first at epoch " << kChangeAt << " of " << kEpochs
            << " (steady workload, " << h.seeds_for(kSeeds).size()
            << " seeds).\n\n";

  // ---- Table 1: the trade-off space itself --------------------------------
  // Deterministic (fixed seed 77) and cheap, so it stays a serial pre-pass
  // outside the grid.
  const auto points = measure_configs();
  core::GoalModel goals;
  goals.add_objective("throughput", core::utility::rising(0.0, 45.0), 1.0);
  goals.add_objective("latency", core::utility::falling(0.0, 2.0), 3.0);
  goals.add_objective("power", core::utility::falling(1.0, 10.0), 0.5);
  goals.add_objective("queue", core::utility::falling(0.0, 40.0), 1.0);

  const auto front = core::pareto_front(goals, points);
  set_regime(goals, false);
  const auto perf_pick = core::utility_argmax(goals, points);
  set_regime(goals, true);
  const auto energy_pick = core::utility_argmax(goals, points);

  sim::Table t1("E11.1  configuration trade-off space (steady workload)",
                {"config", "thr", "p95", "power", "pareto", "chosen_by"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const bool efficient =
        std::find(front.begin(), front.end(), i) != front.end();
    std::string chosen;
    if (i == perf_pick) chosen += "perf-first ";
    if (i == energy_pick) chosen += "energy-first";
    t1.add_row({points[i].label, points[i].values[kThroughput],
                points[i].values[kLatency], points[i].values[kPower],
                std::string(efficient ? "yes" : "-"), chosen});
  }
  t1.print(std::cout);
  std::cout << "Re-weighting moves the preferred point ("
            << points[perf_pick].label << " -> "
            << points[energy_pick].label
            << ") along an unchanged Pareto front.\n\n";

  // ---- Table 2: how the managers cope with the change ---------------------
  // Post-change achievable utility: the energy-first score of the point an
  // informed manager would run.
  const double post_target = [&] {
    set_regime(goals, true);
    return goals.utility(points[energy_pick].values);
  }();

  const std::vector<std::pair<std::string, Kind>> rows{
      {"static (design-time)", Kind::Static},
      {"self-aware, value-learning", Kind::ValueLearning},
      {"self-aware, model-predictive", Kind::ModelPredictive}};

  exp::Grid g;
  g.name = "e11";
  for (const auto& [name, kind] : rows) g.variants.push_back(name);
  g.seeds = kSeeds;
  g.task = [&rows, post_target](const exp::TaskContext& ctx) {
    return run(rows[ctx.variant].second, ctx.seed, post_target);
  };
  const auto res = h.run(std::move(g));

  sim::Table t2("E11.2  utility before/after the goal change",
                {"manager", "before", "after", "recovery_epochs"});
  for (std::size_t v = 0; v < res.variants.size(); ++v) {
    t2.add_row({res.variants[v], res.mean(v, "before"),
                res.mean(v, "after"), res.mean(v, "recovery_epochs")});
  }
  t2.print(std::cout);
  return h.finish();
}

// Rendered self-explanations, pinned to one digest per run.
//
// Every explanation an agent's log retains is rendered and fed, byte for
// byte, into a Fingerprint: the E1 manager's threshold rules, the E3
// autoscaler's fixed and rule policies, and a degradation ladder driven
// down to Reactive and back up while a traced bandit agent decides. The
// model-based runs are pinned by GoalLayer.* and the learning cameras by
// CameraFleet.LearningTrajectoryIsPinned. Any change to how a decision is
// recorded or worded (action names, alternatives, evidence, goal utility,
// cited trace ids, the transition form) moves a digest.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cloud/autoscaler.hpp"
#include "core/agent.hpp"
#include "core/degrade.hpp"
#include "learn/bandit.hpp"
#include "multicore/manager.hpp"
#include "multicore/workload.hpp"
#include "sim/trace.hpp"
#include "support/fingerprint.hpp"

namespace sa::core {
namespace {

std::uint64_t digest_log(const SelfAwareAgent& agent) {
  test::support::Fingerprint fp;
  const Explainer& ex = agent.explainer();
  fp.add(ex.decisions());
  fp.add(ex.size());
  for (std::size_t i = 0; i < ex.size(); ++i) fp.add(agent.render(ex.at(i)));
  return fp.value();
}

TEST(ExplanationPin, E1RuleManagerRenders) {
  multicore::Platform platform(multicore::PlatformConfig::big_little(2, 4),
                               11);
  auto workload = multicore::PhasedWorkload::standard();
  multicore::Manager::Params p;
  p.variant = multicore::Manager::Variant::Reactive;
  p.seed = 11;
  multicore::Manager mgr(platform, p);
  for (int e = 0; e < 240; ++e) {
    workload.apply(platform);
    mgr.run_epoch();
  }
  const std::uint64_t digest = digest_log(mgr.agent());
  EXPECT_EQ(digest, 0xc00b78483b78c0b9ull) << std::hex << "digest 0x" << digest;
}

std::uint64_t autoscaler_digest(cloud::Autoscaler::Variant v) {
  cloud::Cluster::Params cp;
  cp.nodes = 30;
  cp.mttf_mean_s = 300.0;
  cp.seed = 21;
  cloud::Cluster cluster(cp);
  cloud::DemandModel::Params dp;
  dp.base = 80.0;
  dp.diurnal_amp = 0.4;
  dp.burst_prob = 0.03;
  dp.burst_mult = 2.0;
  cloud::DemandModel demand(dp);
  cloud::Autoscaler::Params ap;
  ap.variant = v;
  ap.seed = 21;
  ap.initial_nodes = 12;
  cloud::Autoscaler as(cluster, demand, ap);
  for (int e = 0; e < 120; ++e) as.run_epoch();
  return digest_log(as.agent());
}

TEST(ExplanationPin, E3FixedAutoscalerRenders) {
  const std::uint64_t digest =
      autoscaler_digest(cloud::Autoscaler::Variant::Static);
  EXPECT_EQ(digest, 0x555a34db2a333d7bull) << std::hex << "digest 0x" << digest;
}

TEST(ExplanationPin, E3RuleAutoscalerRenders) {
  const std::uint64_t digest =
      autoscaler_digest(cloud::Autoscaler::Variant::Reactive);
  EXPECT_EQ(digest, 0x579ee8683a7c16c1ull) << std::hex << "digest 0x" << digest;
}

TEST(ExplanationPin, DegradationLadderRenders) {
  // A traced UCB1 agent with a goal, stepped each tick while its ladder
  // watches "fault.active": pressure for ticks 10-29 walks it down to
  // Reactive, and the clean ticks after walk it back up to Meta.
  sim::TelemetryBus bus;
  sim::Tracer tracer(bus);
  AgentConfig cfg;
  cfg.seed = 3;
  cfg.tracer = &tracer;
  SelfAwareAgent agent("ladder", cfg);
  double load = 0.0;
  agent.add_sensor("load", [&load] { return load; });
  agent.add_action("low", [] {});
  agent.add_action("high", [] {});
  agent.goals().add_objective("load", utility::falling(0.0, 2.0), 1.0);
  agent.set_policy(
      std::make_unique<BanditPolicy>(std::make_unique<learn::Ucb1>(2)));
  DegradationPolicy::Params dp;
  dp.breach_updates = 2;
  dp.recover_updates = 3;
  DegradationPolicy ladder(agent, dp);
  KnowledgeBase& kb = agent.knowledge();
  const auto fault_key = kb.key("fault.active");
  const auto fault_src = kb.source_id("fault");
  for (int i = 0; i < 60; ++i) {
    const double t = static_cast<double>(i);
    load = 1.0 + std::sin(0.3 * t);
    agent.step(t);
    agent.reward(agent.current_utility());
    kb.put_number(fault_key, i >= 10 && i < 30 ? 2.0 : 0.0, t, 1.0,
                  Scope::Private, fault_src);
    ladder.update(t, static_cast<sim::TraceId>(1000 + i));
  }
  ASSERT_EQ(ladder.degradations(), 3u);
  ASSERT_EQ(ladder.recoveries(), 3u);
  const std::uint64_t digest = digest_log(agent);
  EXPECT_EQ(digest, 0xeac7029a92b9177eull) << std::hex << "digest 0x" << digest;
}

}  // namespace
}  // namespace sa::core

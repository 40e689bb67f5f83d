// The goal layer's output, pinned to one digest per substrate.
//
// Short runs of the two model-based agents, the self-aware multicore
// manager (E1's platform and phased workload) and the self-aware
// autoscaler (E3's volunteer cloud). After every epoch the digest takes
// every "goal.*" knowledge value, the goal process's self-assessed quality
// and the last decision's rendered explanation, whose text carries every
// action's predicted utility and the policy's rationale. A
// change to how goals are evaluated, how a prediction is scored or how the
// rationale is worded moves the digest; the substrate pins (E12, E3) hold
// only utilities and stats.
#include <gtest/gtest.h>

#include <string_view>

#include "cloud/autoscaler.hpp"
#include "multicore/manager.hpp"
#include "multicore/workload.hpp"
#include "support/fingerprint.hpp"

namespace sa::core {
namespace {

void digest_goal_layer(SelfAwareAgent& agent, test::support::Fingerprint& fp) {
  const KnowledgeBase& kb = agent.knowledge();
  for (const KnowledgeBase::KeyId id : kb.ids()) {
    const std::string_view key = kb.name(id);
    if (!key.starts_with("goal.")) continue;
    fp.add(key);
    fp.add(kb.number(id));
  }
  ASSERT_NE(agent.goal_awareness(), nullptr);
  fp.add(agent.goal_awareness()->quality());
  fp.add(agent.why_last());
}

TEST(GoalLayer, E1ManagerRunIsPinned) {
  multicore::Platform platform(multicore::PlatformConfig::big_little(2, 4),
                               11);
  auto workload = multicore::PhasedWorkload::standard();
  multicore::Manager::Params p;
  p.variant = multicore::Manager::Variant::SelfAware;
  p.seed = 11;
  multicore::Manager mgr(platform, p);
  test::support::Fingerprint fp;
  for (int e = 0; e < 240; ++e) {
    workload.apply(platform);
    fp.add(mgr.run_epoch());
    digest_goal_layer(mgr.agent(), fp);
  }
  fp.add(mgr.agent().describe());
  EXPECT_EQ(fp.value(), 0x899f20c50d99cba6ull)
      << std::hex << "digest 0x" << fp.value();
}

TEST(GoalLayer, E3AutoscalerRunIsPinned) {
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
  ap.variant = cloud::Autoscaler::Variant::SelfAware;
  ap.seed = 21;
  ap.initial_nodes = 12;
  cloud::Autoscaler as(cluster, demand, ap);
  test::support::Fingerprint fp;
  for (int e = 0; e < 120; ++e) {
    fp.add(as.run_epoch().sla);
    digest_goal_layer(as.agent(), fp);
  }
  fp.add(as.agent().describe());
  EXPECT_EQ(fp.value(), 0xaa65be7a6951fd46ull)
      << std::hex << "digest 0x" << fp.value();
}

}  // namespace
}  // namespace sa::core

#include "core/agent.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "learn/bandit.hpp"
#include "support/key_names.hpp"

namespace sa::core {
namespace {

// The processes hold the agent's knowledge base and the meta level's drift
// hook captures the agent, so an agent stays where it was built.
static_assert(!std::is_copy_constructible_v<SelfAwareAgent>);
static_assert(!std::is_move_constructible_v<SelfAwareAgent>);
static_assert(!std::is_copy_assignable_v<SelfAwareAgent>);
static_assert(!std::is_move_assignable_v<SelfAwareAgent>);

AgentConfig quiet_config() {
  AgentConfig cfg;
  cfg.seed = 5;
  return cfg;
}

TEST(SelfAwareAgent, FullStackConstructsAllProcesses) {
  SelfAwareAgent a("full", quiet_config());
  EXPECT_NE(a.stimulus(), nullptr);
  EXPECT_NE(a.interaction(), nullptr);
  EXPECT_NE(a.time_awareness(), nullptr);
  EXPECT_NE(a.meta(), nullptr);
  // The goal process starts at the first step with an objective.
  EXPECT_EQ(a.goal_awareness(), nullptr);
  a.goals().add_objective("x", utility::rising(0.0, 1.0));
  EXPECT_EQ(a.goal_awareness(), nullptr);
  a.step(0.0);
  EXPECT_NE(a.goal_awareness(), nullptr);
}

TEST(SelfAwareAgent, MinimalConfigHasOnlyStimulus) {
  AgentConfig cfg;
  cfg.levels = LevelSet::minimal();
  SelfAwareAgent a("min", cfg);
  EXPECT_NE(a.stimulus(), nullptr);
  EXPECT_EQ(a.interaction(), nullptr);
  EXPECT_EQ(a.time_awareness(), nullptr);
  EXPECT_EQ(a.meta(), nullptr);
  a.goals().add_objective("x", utility::rising(0.0, 1.0));
  a.step(0.0);
  EXPECT_EQ(a.goal_awareness(), nullptr);  // Goal level not enabled
}

// E9's watcher shape: sensors and a full stack, but no objective.
TEST(SelfAwareAgent, NoObjectiveMeansNoGoalProcess) {
  SelfAwareAgent a("watcher", quiet_config());
  a.add_sensor("x", [] { return 1.0; });
  for (int i = 0; i < 5; ++i) a.step(i);
  EXPECT_EQ(a.goal_awareness(), nullptr);
  EXPECT_DOUBLE_EQ(a.current_utility(), 0.0);
  const KnowledgeBase& kb = a.knowledge();
  EXPECT_EQ(kb.find("goal.utility"), KnowledgeBase::kNoKey);
  EXPECT_EQ(kb.find("meta.goal.quality"), KnowledgeBase::kNoKey);
  EXPECT_EQ(a.describe().find("goal="), std::string::npos);
}

TEST(SelfAwareAgent, SensorsFlowIntoKnowledge) {
  SelfAwareAgent a("sensing", quiet_config());
  double load = 3.0;
  a.add_sensor("load", [&] { return load; });
  a.step(1.0);
  const KnowledgeBase& kb = a.knowledge();
  EXPECT_DOUBLE_EQ(kb.number(kb.find("load")), 3.0);
  load = 9.0;
  a.step(2.0);
  EXPECT_DOUBLE_EQ(kb.number(kb.find("load")), 9.0);
}

TEST(SelfAwareAgent, SensorsReachKnowledgeEvenWithoutStimulusLevel) {
  AgentConfig cfg;
  cfg.levels = LevelSet{};  // zero awareness
  SelfAwareAgent a("none", cfg);
  a.add_sensor("x", [] { return 4.0; });
  a.step(0.0);
  EXPECT_DOUBLE_EQ(a.knowledge().number(a.knowledge().find("x")), 4.0);
}

TEST(SelfAwareAgent, RawReadingsMirrorByIdWithoutStimulus) {
  // With stimulus awareness paused the agent mirrors raw readings itself;
  // a sensor registered after the first step gets a key too.
  SelfAwareAgent a("mirror", quiet_config());
  a.set_active_levels(LevelSet{});
  a.add_sensor("b", [] { return 2.0; });
  a.add_sensor("a", [] { return 1.0; });
  a.step(0.0);
  a.add_sensor("c", [] { return 3.0; });
  a.step(1.0);
  const KnowledgeBase& kb = a.knowledge();
  EXPECT_EQ(test::support::key_names(kb),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(kb.history(kb.find("a")).size(), 2u);
  EXPECT_EQ(kb.history(kb.find("c")).size(), 1u);
  EXPECT_DOUBLE_EQ(kb.number(kb.find("c")), 3.0);
  EXPECT_EQ(kb.latest(kb.find("b"))->source, "sensor");
  EXPECT_EQ(kb.latest(kb.find("b"))->scope, Scope::Public);
}

TEST(SelfAwareAgent, DecisionsActuate) {
  SelfAwareAgent a("acting", quiet_config());
  int ups = 0, downs = 0;
  a.add_action("up", [&] { ++ups; });
  a.add_action("down", [&] { ++downs; });
  a.set_policy(std::make_unique<FixedPolicy>(0));
  for (int i = 0; i < 5; ++i) a.step(i);
  EXPECT_EQ(ups, 5);
  EXPECT_EQ(downs, 0);
}

TEST(SelfAwareAgent, NoPolicyMeansNoDecision) {
  SelfAwareAgent a("idle", quiet_config());
  a.add_action("noop", [] {});
  const Decision& d = a.step(0.0);
  EXPECT_EQ(d.action_index, static_cast<std::size_t>(-1));
  EXPECT_TRUE(d.rationale.empty());
  EXPECT_TRUE(d.scores.empty());
}

TEST(SelfAwareAgent, RewardReachesLearningPolicy) {
  SelfAwareAgent a("learning", quiet_config());
  a.add_action("a", [] {});
  a.add_action("b", [] {});
  a.set_policy(std::make_unique<BanditPolicy>(
      std::make_unique<learn::EpsilonGreedy>(2, 0.1)));
  std::size_t b_count = 0;
  const int n = 800;
  for (int i = 0; i < n; ++i) {
    const Decision& d = a.step(i);
    a.reward(d.action_index == 1 ? 1.0 : 0.0);
    if (i > n / 2 && d.action_index == 1) ++b_count;
  }
  EXPECT_GT(b_count, static_cast<std::size_t>(n / 2 * 0.7));
}

TEST(SelfAwareAgent, GoalUtilityComputedFromSensors) {
  SelfAwareAgent a("goals", quiet_config());
  a.add_sensor("perf", [] { return 50.0; });
  a.goals().add_objective("perf", utility::rising(0.0, 100.0), 1.0);
  a.step(0.0);
  EXPECT_DOUBLE_EQ(a.current_utility(), 0.5);
  const KnowledgeBase& kb = a.knowledge();
  EXPECT_DOUBLE_EQ(kb.number(kb.find("goal.utility")), 0.5);
}

// Goals change at run time: an objective added after the agent has
// stepped starts the goal process (or joins the running one) at the next
// step, and the meta level watches that one process once.
TEST(SelfAwareAgent, ObjectiveAddedAfterFirstStepIsEvaluated) {
  SelfAwareAgent a("regoal", quiet_config());
  a.add_sensor("x", [] { return 2.0; });
  a.add_sensor("y", [] { return 8.0; });
  a.step(0.0);
  EXPECT_EQ(a.goal_awareness(), nullptr);
  a.goals().add_objective("x", utility::rising(0.0, 10.0), 1.0);
  a.step(1.0);
  EXPECT_DOUBLE_EQ(a.current_utility(), 0.2);
  a.goals().add_objective("y", utility::rising(0.0, 10.0), 1.0);
  for (int i = 2; i < 6; ++i) a.step(i);
  EXPECT_DOUBLE_EQ(a.current_utility(), 0.5);
  // The process always had every metric, so meta's smoothed goal quality
  // is 1; one watch writes one quality item per meta update (steps 1-5).
  const KnowledgeBase& kb = a.knowledge();
  const KnowledgeBase::KeyId quality = kb.find("meta.goal.quality");
  EXPECT_DOUBLE_EQ(kb.number(quality), 1.0);
  EXPECT_EQ(kb.history(quality).size(), 5u);
  EXPECT_NE(a.describe().find("goal=1.00"), std::string::npos);
}

TEST(SelfAwareAgent, TimeAwarenessForecastsSensorSignals) {
  SelfAwareAgent a("forecaster", quiet_config());
  double v = 0.0;
  a.add_sensor("ramp", [&] { return v; });
  for (int i = 0; i < 60; ++i) {
    v = 2.0 * i;
    a.step(i);
  }
  const KnowledgeBase& kb = a.knowledge();
  EXPECT_NE(kb.find("forecast.ramp"), KnowledgeBase::kNoKey);
  EXPECT_NEAR(kb.number(kb.find("forecast.ramp")), 120.0, 5.0);
}

TEST(SelfAwareAgent, ExplanationsRecordedPerDecision) {
  SelfAwareAgent a("explained", quiet_config());
  a.add_sensor("x", [] { return 1.0; });
  a.add_action("act", [] {});
  a.set_policy(std::make_unique<FixedPolicy>(0));
  for (int i = 0; i < 7; ++i) a.step(i);
  EXPECT_EQ(a.explainer().size(), 7u);
  EXPECT_DOUBLE_EQ(a.explainer().coverage(), 1.0);
  EXPECT_EQ(a.why_last(),
            "[t=6.000] explained chose 'act' because fixed design-time "
            "choice.");
}

TEST(SelfAwareAgent, ExplanationsCanBeDisabled) {
  SelfAwareAgent a("silent", quiet_config());
  a.explainer().set_enabled(false);
  a.add_action("act", [] {});
  a.set_policy(std::make_unique<FixedPolicy>(0));
  a.step(0.0);
  EXPECT_EQ(a.explainer().size(), 0u);
  EXPECT_EQ(a.explainer().decisions(), 1u);
}

TEST(SelfAwareAgent, ExplanationCapturesGoalUtilityAndEvidence) {
  SelfAwareAgent a("evidenced", quiet_config());
  a.add_sensor("m", [] { return 10.0; });
  a.goals().add_objective("m", utility::rising(0.0, 10.0), 1.0);
  a.add_action("act", [] {});
  auto rules = std::make_unique<RulePolicy>(0);
  rules->add_rule({"m seen",
                   [](const KnowledgeBase& kb) {
                     return kb.number(kb.find("m")) > 5;
                   },
                   0,
                   {"m"}});
  a.set_policy(std::move(rules));
  a.step(1.0);
  ASSERT_EQ(a.explainer().size(), 1u);
  const Explanation& e = a.explainer().at(0);
  EXPECT_TRUE(e.has_goal);
  EXPECT_DOUBLE_EQ(e.goal_utility, 1.0);
  ASSERT_EQ(e.evidence.size(), 1u);
  EXPECT_EQ(a.knowledge().name(e.evidence[0].key), "m");
  EXPECT_DOUBLE_EQ(e.evidence[0].value, 10.0);
}

TEST(SelfAwareAgent, InteractionsFlowToPeerKnowledge) {
  SelfAwareAgent a("social", quiet_config());
  for (int i = 0; i < 20; ++i) a.record_interaction("friend", true, 1.0);
  a.step(0.0);
  const KnowledgeBase& kb = a.knowledge();
  EXPECT_NEAR(kb.number(kb.find("peer.friend.reliability")), 1.0, 1e-9);
}

TEST(SelfAwareAgent, InteractionIgnoredWhenLevelDisabled) {
  AgentConfig cfg;
  cfg.levels = LevelSet::minimal();
  SelfAwareAgent a("antisocial", cfg);
  a.record_interaction("friend", true);  // must be a safe no-op
  a.step(0.0);
  EXPECT_EQ(a.knowledge().find("peer.friend.reliability"),
            KnowledgeBase::kNoKey);
}

TEST(SelfAwareAgent, AttentionBudgetLimitsSampling) {
  AgentConfig cfg = quiet_config();
  cfg.attention_budget = 1;
  cfg.attention_strategy = AttentionManager::Strategy::RoundRobin;
  SelfAwareAgent a("attentive", cfg);
  int reads_a = 0, reads_b = 0;
  a.add_sensor("a", [&] {
    ++reads_a;
    return 0.0;
  });
  a.add_sensor("b", [&] {
    ++reads_b;
    return 0.0;
  });
  for (int i = 0; i < 10; ++i) a.step(i);
  EXPECT_EQ(reads_a + reads_b, 10);
  EXPECT_EQ(reads_a, 5);
  EXPECT_EQ(reads_b, 5);
}

TEST(SelfAwareAgent, MetaResetsPolicyOnUtilityDrift) {
  AgentConfig cfg = quiet_config();
  cfg.meta.grace_updates = 8;
  cfg.meta.ph_lambda = 1.0;
  SelfAwareAgent a("adaptive", cfg);
  double metric = 10.0;
  a.add_sensor("m", [&] { return metric; });
  a.goals().add_objective("m", utility::rising(0.0, 10.0), 1.0);
  a.add_action("x", [] {});
  a.add_action("y", [] {});
  a.set_policy(std::make_unique<BanditPolicy>(
      std::make_unique<learn::EpsilonGreedy>(2, 0.0)));
  auto* policy = dynamic_cast<BanditPolicy*>(a.policy());
  ASSERT_NE(policy, nullptr);

  for (int i = 0; i < 60; ++i) {
    a.step(i);
    a.reward(1.0);
  }
  EXPECT_GT(policy->bandit().value(0) + policy->bandit().value(1), 0.5);
  // Utility collapses -> drift -> meta resets the policy's learned values.
  metric = 0.0;
  for (int i = 60; i < 160; ++i) {
    a.step(i);
    a.reward(0.0);
  }
  ASSERT_GE(a.meta()->drift_detections(), 1u);
}

TEST(SelfAwareAgent, StepsAreCounted) {
  SelfAwareAgent a("counted", quiet_config());
  for (int i = 0; i < 3; ++i) a.step(i);
  EXPECT_EQ(a.steps(), 3u);
}

TEST(SelfAwareAgent, IdAndLevelsAccessors) {
  AgentConfig cfg;
  cfg.levels = LevelSet{Level::Stimulus, Level::Goal};
  SelfAwareAgent a("me", cfg);
  EXPECT_EQ(a.id(), "me");
  EXPECT_TRUE(a.levels().has(Level::Goal));
  EXPECT_FALSE(a.levels().has(Level::Meta));
}

TEST(SelfAwareAgent, ActionNamesPreserved) {
  SelfAwareAgent a("named", quiet_config());
  a.add_action("first", [] {});
  a.add_action("second", [] {});
  EXPECT_EQ(a.actions(), (std::vector<std::string>{"first", "second"}));
}

TEST(SelfAwareAgent, DescribeReportsCapabilities) {
  SelfAwareAgent a("inspector", quiet_config());
  a.add_sensor("load", [] { return 1.0; });
  a.add_sensor("power", [] { return 2.0; });
  a.add_action("up", [] {});
  a.goals().add_objective("load", utility::rising(0.0, 1.0), 1.0);
  a.set_policy(std::make_unique<FixedPolicy>(0));
  for (int i = 0; i < 3; ++i) a.step(i);
  const std::string d = a.describe();
  EXPECT_NE(d.find("inspector"), std::string::npos);
  EXPECT_NE(d.find("stimulus+interaction+time+goal+meta"),
            std::string::npos);
  EXPECT_NE(d.find("2 sensors (load, power)"), std::string::npos);
  EXPECT_NE(d.find("policy fixed"), std::string::npos);
  EXPECT_NE(d.find("1 objective"), std::string::npos);
  EXPECT_NE(d.find("Process quality:"), std::string::npos);
  EXPECT_NE(d.find("Decisions taken: 3 (explained 100%)"),
            std::string::npos);
}

TEST(SelfAwareAgent, DescribeOnEmptyAgentIsSane) {
  AgentConfig cfg;
  cfg.levels = LevelSet{};
  SelfAwareAgent a("blank", cfg);
  const std::string d = a.describe();
  EXPECT_NE(d.find("levels none"), std::string::npos);
  EXPECT_NE(d.find("0 sensors"), std::string::npos);
  EXPECT_NE(d.find("policy none"), std::string::npos);
}

TEST(SelfAwareAgent, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    AgentConfig cfg;
    cfg.seed = seed;
    SelfAwareAgent a("det", cfg);
    a.add_sensor("x", [] { return 1.0; });
    a.add_action("a", [] {});
    a.add_action("b", [] {});
    a.set_policy(std::make_unique<BanditPolicy>(
        std::make_unique<learn::EpsilonGreedy>(2, 0.5)));
    std::vector<std::size_t> picks;
    for (int i = 0; i < 50; ++i) {
      picks.push_back(a.step(i).action_index);
      a.reward(0.5);
    }
    return picks;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

}  // namespace
}  // namespace sa::core

#include "core/degrade.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/agent.hpp"
#include "core/knowledge.hpp"
#include "core/levels.hpp"

namespace sa::core {
namespace {

using Mode = DegradationPolicy::Mode;

DegradationPolicy::Params fast_params() {
  DegradationPolicy::Params p;
  p.fault_active_breach = 1.0;
  p.breach_updates = 2;
  p.recover_updates = 2;
  return p;
}

void put_fault_active(SelfAwareAgent& agent, double value, double t) {
  KnowledgeBase& kb = agent.knowledge();
  kb.put_number(kb.key("fault.active"), value, t, 1.0, Scope::Private,
                kb.source_id("fault"));
}

TEST(DegradationPolicy, StartsHealthyAtMeta) {
  SelfAwareAgent agent("a");
  DegradationPolicy policy(agent, DegradationPolicy::Params{});
  EXPECT_EQ(policy.mode(), Mode::Meta);
  EXPECT_EQ(policy.rung(), 0u);
  EXPECT_EQ(agent.active_levels(), LevelSet::full());
  EXPECT_STREQ(DegradationPolicy::mode_name(Mode::Meta), "meta");
  EXPECT_STREQ(DegradationPolicy::mode_name(Mode::Reactive), "reactive");
}

TEST(DegradationPolicy, BreachMustPersistToStepDown) {
  SelfAwareAgent agent("a");
  DegradationPolicy policy(agent, fast_params());
  put_fault_active(agent, 3.0, 0.0);
  policy.update(1.0);  // first breached update: streak building
  EXPECT_EQ(policy.mode(), Mode::Meta);
  policy.update(2.0);  // second consecutive: step down one rung
  EXPECT_EQ(policy.mode(), Mode::Goal);
  EXPECT_EQ(policy.degradations(), 1u);
  // The rung's ceiling is applied to the agent: Meta gone, the rest stay.
  EXPECT_FALSE(agent.active_levels().has(Level::Meta));
  EXPECT_TRUE(agent.active_levels().has(Level::Goal));
  EXPECT_TRUE(agent.active_levels().has(Level::Stimulus));
}

TEST(DegradationPolicy, TransientBreachResetsTheStreak) {
  SelfAwareAgent agent("a");
  DegradationPolicy policy(agent, fast_params());
  put_fault_active(agent, 3.0, 0.0);
  policy.update(1.0);
  put_fault_active(agent, 0.0, 1.5);  // pressure clears before the second
  policy.update(2.0);
  put_fault_active(agent, 3.0, 2.5);
  policy.update(3.0);
  EXPECT_EQ(policy.mode(), Mode::Meta);  // never two in a row
  EXPECT_EQ(policy.degradations(), 0u);
}

TEST(DegradationPolicy, WalksTheFullLadderDownAndStopsAtReactive) {
  SelfAwareAgent agent("a");
  DegradationPolicy policy(agent, fast_params());
  put_fault_active(agent, 5.0, 0.0);
  for (int i = 0; i < 20; ++i) policy.update(static_cast<double>(i));
  EXPECT_EQ(policy.mode(), Mode::Reactive);
  EXPECT_EQ(policy.degradations(), 3u);  // meta→goal→stimulus→reactive
  EXPECT_TRUE(agent.active_levels().empty());
  // The constructed capability set is untouched — only activation shrank.
  EXPECT_EQ(agent.levels(), LevelSet::full());
}

TEST(DegradationPolicy, RecoversOneRungPerCleanStreak) {
  SelfAwareAgent agent("a");
  DegradationPolicy policy(agent, fast_params());
  put_fault_active(agent, 5.0, 0.0);
  for (int i = 0; i < 8; ++i) policy.update(static_cast<double>(i));
  ASSERT_EQ(policy.mode(), Mode::Reactive);
  put_fault_active(agent, 0.0, 8.0);
  policy.update(9.0);
  policy.update(10.0);
  EXPECT_EQ(policy.mode(), Mode::Stimulus);
  policy.update(11.0);
  policy.update(12.0);
  EXPECT_EQ(policy.mode(), Mode::Goal);
  policy.update(13.0);
  policy.update(14.0);
  EXPECT_EQ(policy.mode(), Mode::Meta);
  policy.update(15.0);
  policy.update(16.0);
  EXPECT_EQ(policy.mode(), Mode::Meta);  // ceiling: never past Meta
  EXPECT_EQ(policy.recoveries(), 3u);
  EXPECT_EQ(agent.active_levels(), LevelSet::full());
}

TEST(DegradationPolicy, DwellAccruesOnlyWhileDegraded) {
  SelfAwareAgent agent("a");
  DegradationPolicy policy(agent, fast_params());
  policy.update(0.0);
  policy.update(10.0);  // healthy: no dwell
  EXPECT_DOUBLE_EQ(policy.degraded_dwell(), 0.0);
  put_fault_active(agent, 5.0, 10.0);
  policy.update(11.0);
  policy.update(12.0);  // degrades at t=12
  ASSERT_EQ(policy.mode(), Mode::Goal);
  EXPECT_DOUBLE_EQ(policy.degraded_dwell(), 0.0);
  put_fault_active(agent, 0.0, 12.5);
  policy.update(13.0);  // 12 → 13 spent degraded
  policy.update(14.0);  // recovers at t=14 (after accruing 13 → 14)
  EXPECT_EQ(policy.mode(), Mode::Meta);
  EXPECT_DOUBLE_EQ(policy.degraded_dwell(), 2.0);
  policy.update(20.0);  // healthy again: dwell frozen
  EXPECT_DOUBLE_EQ(policy.degraded_dwell(), 2.0);
}

TEST(DegradationPolicy, TransitionsAreExplainedWithTraceIds) {
  SelfAwareAgent agent("a");
  DegradationPolicy policy(agent, fast_params());
  put_fault_active(agent, 3.0, 0.0);
  policy.update(1.0, /*trace=*/7);
  policy.update(2.0, /*trace=*/7);
  ASSERT_EQ(policy.mode(), Mode::Goal);

  ASSERT_EQ(agent.explainer().size(), 1u);
  const Explanation& last = agent.explainer().at(0);
  EXPECT_STREQ(last.from_mode, "meta");
  EXPECT_STREQ(last.to_mode, "goal");
  EXPECT_FALSE(last.recovered);
  EXPECT_EQ(last.trace_id, 7u);
  EXPECT_EQ(agent.render(last),
            "Degraded meta→goal at t=2.000: fault pressure (3 active), "
            "trace #7");

  // And the recovery renders in the recovered form.
  put_fault_active(agent, 0.0, 3.0);
  policy.update(4.0, /*trace=*/9);
  policy.update(5.0, /*trace=*/9);
  ASSERT_EQ(policy.mode(), Mode::Meta);
  EXPECT_TRUE(agent.explainer().at(1).recovered);
  EXPECT_EQ(agent.why_last(),
            "Recovered goal→meta at t=5.000: triggers clear, trace #9");
}

TEST(DegradationPolicy, LadderClampsToTheConstructedLevelSet) {
  // An agent built without Meta or Goal: the upper rungs collapse onto the
  // capability set it actually has.
  AgentConfig cfg;
  cfg.levels = LevelSet{Level::Stimulus, Level::Interaction};
  SelfAwareAgent agent("minimal", cfg);
  DegradationPolicy policy(agent, fast_params());
  EXPECT_EQ(agent.active_levels(), cfg.levels);

  put_fault_active(agent, 5.0, 0.0);
  for (int i = 0; i < 8; ++i) policy.update(static_cast<double>(i));
  EXPECT_EQ(policy.mode(), Mode::Reactive);
  EXPECT_TRUE(agent.active_levels().empty());
  put_fault_active(agent, 0.0, 8.0);
  for (int i = 8; i < 20; ++i) policy.update(static_cast<double>(i));
  EXPECT_EQ(policy.mode(), Mode::Meta);
  // Fully recovered — but never beyond what was constructed.
  EXPECT_EQ(agent.active_levels(), cfg.levels);
}

TEST(SelfAwareAgent, SetActiveLevelsNeverGrowsCapabilities) {
  AgentConfig cfg;
  cfg.levels = LevelSet{Level::Stimulus, Level::Goal};
  SelfAwareAgent agent("a", cfg);
  agent.set_active_levels(LevelSet::full());
  EXPECT_EQ(agent.active_levels(), cfg.levels);
  agent.set_active_levels(LevelSet{});
  EXPECT_TRUE(agent.active_levels().empty());
}

TEST(SelfAwareAgent, ReactiveModeStillMirrorsSensorsIntoTheKb) {
  SelfAwareAgent agent("a");
  double reading = 42.0;
  agent.add_sensor("x", [&] { return reading; });
  agent.set_active_levels(LevelSet{});
  agent.step(1.0);
  // No stimulus process ran, but the raw reading is in the KB.
  const KnowledgeBase& kb = agent.knowledge();
  EXPECT_DOUBLE_EQ(kb.number(kb.find("x"), -1.0), 42.0);
}

TEST(SelfAwareAgent, NanSensorReadsAreSkippedAndCounted) {
  SelfAwareAgent agent("a");
  double reading = 1.0;
  agent.add_sensor("x", [&] { return reading; });
  agent.step(1.0);
  EXPECT_EQ(agent.sensor_gaps(), 0u);
  reading = std::numeric_limits<double>::quiet_NaN();
  agent.step(2.0);
  agent.step(3.0);
  EXPECT_EQ(agent.sensor_gaps(), 2u);
  // The key stops updating instead of turning into NaN: a reader sees an
  // aging item, not a poisoned one.
  reading = 5.0;
  agent.step(4.0);
  const KnowledgeBase& kb = agent.knowledge();
  const auto item = kb.latest(kb.find("x"));
  ASSERT_TRUE(item.has_value());
  EXPECT_DOUBLE_EQ(item->time, 4.0);
}

}  // namespace
}  // namespace sa::core

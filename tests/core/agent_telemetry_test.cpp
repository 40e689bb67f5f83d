// Tests for the agent's telemetry emission (AgentConfig::telemetry).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/agent.hpp"

namespace sa::core {
namespace {

using sim::RingBufferSink;
using sim::TelemetryBus;

struct Rig {
  TelemetryBus bus;
  RingBufferSink sink;
  Rig() { bus.add_sink(&sink); }
  AgentConfig config() {
    AgentConfig cfg;
    cfg.telemetry = &bus;
    return cfg;
  }
};

TEST(AgentTelemetry, EmitsObservationAndDecisionPerStep) {
  Rig rig;
  SelfAwareAgent agent("traced", rig.config());
  agent.add_sensor("x", [] { return 1.0; });
  agent.add_action("go", [] {});
  agent.set_policy(std::make_unique<FixedPolicy>(0));
  for (int i = 0; i < 5; ++i) agent.step(i);
  EXPECT_EQ(rig.bus.count(TelemetryBus::kObservation), 5u);
  EXPECT_EQ(rig.bus.count(TelemetryBus::kDecision), 5u);
  const auto subject = rig.bus.intern_subject("traced");
  EXPECT_EQ(rig.sink.by_subject(subject).size(), 10u);
}

TEST(AgentTelemetry, ObservationListsSampledSignals) {
  Rig rig;
  SelfAwareAgent agent("traced", rig.config());
  agent.add_sensor("alpha", [] { return 1.0; });
  agent.add_sensor("beta", [] { return 2.0; });
  agent.step(0.0);
  const auto obs = rig.sink.by_category(TelemetryBus::kObservation);
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_EQ(obs[0]->detail, "alpha,beta");
  EXPECT_DOUBLE_EQ(obs[0]->value, 2.0);  // signals sampled
}

TEST(AgentTelemetry, DecisionCarriesActionIndexAndRationale) {
  Rig rig;
  SelfAwareAgent agent("traced", rig.config());
  agent.add_action("launch", [] {});
  agent.set_policy(std::make_unique<FixedPolicy>(0));
  agent.step(2.5);
  const auto decides = rig.sink.by_category(TelemetryBus::kDecision);
  ASSERT_EQ(decides.size(), 1u);
  EXPECT_DOUBLE_EQ(decides[0]->t, 2.5);
  EXPECT_DOUBLE_EQ(decides[0]->value, 0.0);  // action index
  EXPECT_NE(decides[0]->detail.find("launch"), std::string::npos);
  EXPECT_NE(decides[0]->detail.find("fixed design-time choice"),
            std::string::npos);
}

TEST(AgentTelemetry, NoDecisionMeansNoDecisionEvent) {
  Rig rig;
  SelfAwareAgent agent("sensor-only", rig.config());
  agent.add_sensor("x", [] { return 1.0; });
  agent.step(0.0);
  EXPECT_EQ(rig.bus.count(TelemetryBus::kObservation), 1u);
  EXPECT_EQ(rig.bus.count(TelemetryBus::kDecision), 0u);
}

TEST(AgentTelemetry, AttentionBudgetVisibleInObservations) {
  Rig rig;
  AgentConfig cfg = rig.config();
  cfg.attention_budget = 1;
  cfg.attention_strategy = AttentionManager::Strategy::RoundRobin;
  SelfAwareAgent agent("focused", cfg);
  agent.add_sensor("a", [] { return 0.0; });
  agent.add_sensor("b", [] { return 0.0; });
  agent.step(0.0);
  agent.step(1.0);
  const auto obs = rig.sink.by_category(TelemetryBus::kObservation);
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_EQ(obs[0]->detail, "a");
  EXPECT_EQ(obs[1]->detail, "b");
}

TEST(AgentTelemetry, NoBusMeansNoEventsAndNoCrash) {
  SelfAwareAgent agent("untraced", {});
  agent.add_sensor("x", [] { return 1.0; });
  agent.step(0.0);
  SUCCEED();
}

TEST(AgentTelemetry, DisabledBusStaysSilent) {
  Rig rig;
  rig.bus.set_enabled(false);
  SelfAwareAgent agent("muted", rig.config());
  agent.add_sensor("x", [] { return 1.0; });
  agent.add_action("go", [] {});
  agent.set_policy(std::make_unique<FixedPolicy>(0));
  agent.step(0.0);
  EXPECT_EQ(rig.bus.total(), 0u);
  EXPECT_EQ(rig.sink.seen(), 0u);
}

}  // namespace
}  // namespace sa::core

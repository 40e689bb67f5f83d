// Tests for the agent's decision-provenance tracing (AgentConfig::tracer):
// ODA span structure, causal flow chains, explanation citations, and the
// invariant that attaching a tracer never perturbs the trajectory.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/agent.hpp"
#include "learn/bandit.hpp"

namespace sa::core {
namespace {

using sim::FlowPhase;
using sim::TelemetryBus;
using sim::Tracer;

struct Rig {
  TelemetryBus bus;
  Tracer tracer{bus};
  AgentConfig config() {
    AgentConfig cfg;
    cfg.tracer = &tracer;
    return cfg;
  }
};

std::unique_ptr<SelfAwareAgent> make_agent(const std::string& id,
                                           AgentConfig cfg) {
  auto agent = std::make_unique<SelfAwareAgent>(id, cfg);
  agent->add_sensor("load", [] { return 0.8; });
  agent->add_action("up", [] {});
  agent->add_action("down", [] {});
  agent->set_policy(std::make_unique<BanditPolicy>(
      std::make_unique<learn::Ucb1>(2)));
  return agent;
}

TEST(AgentTrace, StepEmitsNestedOdaSpans) {
  Rig rig;
  auto agent = make_agent("traced", rig.config());
  agent->step(1.0);
  agent->reward(0.5);
  // step > {observe, knowledge, decide, act} plus the outcome span.
  EXPECT_EQ(rig.tracer.spans(), 6u);
  EXPECT_EQ(rig.tracer.depth(), 0u);  // everything closed
  std::vector<std::string> begins;
  for (const auto& e : rig.tracer.events()) {
    if (e.kind == Tracer::Event::Kind::Begin) {
      begins.push_back(rig.tracer.name(e.name));
    }
  }
  EXPECT_EQ(begins, (std::vector<std::string>{"step", "observe", "knowledge",
                                              "decide", "act", "outcome"}));
}

TEST(AgentTrace, DecisionChainRunsDecideActOutcome) {
  Rig rig;
  auto agent = make_agent("traced", rig.config());
  const Decision d = agent->step(0.0);
  ASSERT_NE(d.trace_id, 0u);
  agent->reward(1.0);
  // The decision chain: Begin at decide, Step at act, End at outcome.
  std::vector<FlowPhase> phases;
  for (const auto& e : rig.tracer.events()) {
    if (e.kind == Tracer::Event::Kind::Flow && e.id == d.trace_id) {
      phases.push_back(e.phase);
    }
  }
  EXPECT_EQ(phases, (std::vector<FlowPhase>{FlowPhase::Begin, FlowPhase::Step,
                                            FlowPhase::End}));
}

TEST(AgentTrace, ObservationChainTerminatesAtTheDecision) {
  Rig rig;
  auto agent = make_agent("traced", rig.config());
  agent->step(0.0);
  // Exactly one chain opens at observe and must see Begin, Step (knowledge)
  // and End (decide).
  sim::TraceId obs_id = 0;
  for (const auto& e : rig.tracer.events()) {
    if (e.kind == Tracer::Event::Kind::Flow &&
        rig.tracer.name(e.name) == "observation") {
      if (obs_id == 0) obs_id = e.id;
      EXPECT_EQ(e.id, obs_id);
    }
  }
  ASSERT_NE(obs_id, 0u);
  int count = 0;
  for (const auto& e : rig.tracer.events()) {
    if (e.kind == Tracer::Event::Kind::Flow && e.id == obs_id) ++count;
  }
  EXPECT_EQ(count, 3);
}

TEST(AgentTrace, ExplanationCitesResolvableTraceIds) {
  Rig rig;
  auto agent = make_agent("traced", rig.config());
  agent->step(0.0);
  const auto last = agent->explainer().last();
  ASSERT_TRUE(last.has_value());
  EXPECT_NE(last->trace_id, 0u);
  ASSERT_FALSE(last->cited.empty());
  // Every cited id appears in the tracer's record.
  for (const sim::TraceId id : last->cited) {
    bool found = false;
    for (const auto& e : rig.tracer.events()) {
      if (e.id == id) found = true;
    }
    EXPECT_TRUE(found) << "cited id " << id << " not in trace";
  }
  const std::string text = last->render();
  EXPECT_NE(text.find("Trace: decision #"), std::string::npos);
  EXPECT_NE(text.find("from evidence #"), std::string::npos);
}

TEST(AgentTrace, StimulusEventsCarryTraceIds) {
  Rig rig;
  AgentConfig cfg = rig.config();
  auto agent = std::make_unique<SelfAwareAgent>("stim", cfg);
  // Mildly noisy baseline (a constant would leave the learned stddev at
  // zero), then a massive excursion registers as a stimulus event.
  int tick = 0;
  double v = 0.0;
  agent->add_sensor("sig", [&] {
    return v + 0.5 * static_cast<double>((tick * 37) % 10) / 10.0;
  });
  for (int i = 0; i < 30; ++i) {
    agent->step(i);
    ++tick;
  }
  v = 100.0;
  agent->step(30.0);
  bool stamped = false;
  for (const auto& sev : agent->stimulus()->events()) {
    if (sev.trace_id != 0) stamped = true;
  }
  EXPECT_TRUE(stamped);
}

TEST(AgentTrace, RewardWithoutPendingDecisionEmitsNothing) {
  Rig rig;
  AgentConfig cfg = rig.config();
  SelfAwareAgent agent("sensor-only", cfg);
  agent.add_sensor("x", [] { return 1.0; });
  agent.step(0.0);  // no policy, no decision
  const auto before = rig.tracer.events().size();
  agent.reward(1.0);
  EXPECT_EQ(rig.tracer.events().size(), before);
}

TEST(AgentTrace, TracerDoesNotPerturbTrajectory) {
  // Identical seeds, with and without a tracer: decisions must match
  // step-for-step (tracing never touches the agent's Rng).
  Rig rig;
  auto traced = make_agent("twin", rig.config());
  auto plain = make_agent("twin", AgentConfig{});
  for (int i = 0; i < 50; ++i) {
    const Decision a = traced->step(i);
    const Decision b = plain->step(i);
    EXPECT_EQ(a.action_index, b.action_index) << "diverged at step " << i;
    EXPECT_EQ(a.action, b.action);
    traced->reward(0.5);
    plain->reward(0.5);
  }
}

TEST(AgentTrace, DisabledTracerAssignsNoIds) {
  TelemetryBus bus;
  Tracer tracer(bus, /*enabled=*/false);
  AgentConfig cfg;
  cfg.tracer = &tracer;
  auto agent = make_agent("muted", cfg);
  const Decision d = agent->step(0.0);
  EXPECT_EQ(d.trace_id, 0u);
  agent->reward(0.5);
  EXPECT_TRUE(tracer.events().empty());
  const auto last = agent->explainer().last();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->trace_id, 0u);
  // Untraced explanations do not cite.
  EXPECT_EQ(last->render().find("Trace:"), std::string::npos);
}

}  // namespace
}  // namespace sa::core

#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "learn/bandit.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace sa::core {
namespace {

AgentConfig quiet() {
  AgentConfig cfg;
  cfg.seed = 3;
  return cfg;
}

TEST(AgentRuntime, StepsAgentAtItsPeriod) {
  sim::Engine engine;
  AgentRuntime rt(engine);
  SelfAwareAgent agent("periodic", quiet());
  agent.add_sensor("x", [] { return 1.0; });
  rt.schedule(agent, 0.5);
  engine.run_until(10.0);
  EXPECT_EQ(agent.steps(), 20u);
  EXPECT_EQ(rt.steps_run(), 20u);
}

TEST(AgentRuntime, DifferentPeriodsCoexist) {
  sim::Engine engine;
  AgentRuntime rt(engine);
  SelfAwareAgent fast("fast", quiet()), slow("slow", quiet());
  rt.schedule(fast, 1.0);
  rt.schedule(slow, 5.0);
  engine.run_until(20.0);
  EXPECT_EQ(fast.steps(), 20u);
  EXPECT_EQ(slow.steps(), 4u);
  EXPECT_EQ(rt.scheduled(), 2u);
}

TEST(AgentRuntime, RewardDeliveredAfterEachStep) {
  sim::Engine engine;
  AgentRuntime rt(engine);
  SelfAwareAgent agent("rewarded", quiet());
  agent.add_action("a", [] {});
  agent.add_action("b", [] {});
  agent.set_policy(std::make_unique<BanditPolicy>(
      std::make_unique<learn::EpsilonGreedy>(2, 0.0)));
  rt.schedule(agent, 1.0, [] { return 1.0; });
  engine.run_until(50.0);
  auto* policy = dynamic_cast<BanditPolicy*>(agent.policy());
  ASSERT_NE(policy, nullptr);
  // All reward went somewhere: at least one arm has learned value 1.
  EXPECT_DOUBLE_EQ(
      std::max(policy->bandit().value(0), policy->bandit().value(1)), 1.0);
}

TEST(AgentRuntime, ExchangeSharesPublicKnowledgeBothWays) {
  sim::Engine engine;
  AgentRuntime rt(engine);
  SelfAwareAgent a("alpha", quiet()), b("beta", quiet());
  double va = 1.0, vb = 2.0;
  a.add_sensor("load", [&] { return va; });
  b.add_sensor("load", [&] { return vb; });
  rt.schedule(a, 1.0);
  rt.schedule(b, 1.0);
  rt.schedule_exchange({&a, &b}, 2.0);
  engine.run_until(10.0);
  EXPECT_GT(rt.items_exchanged(), 0u);
  // Each agent now holds the other's public view of its own load.
  EXPECT_DOUBLE_EQ(a.knowledge().number("shared.beta.load"), 2.0);
  EXPECT_DOUBLE_EQ(b.knowledge().number("shared.alpha.load"), 1.0);
}

TEST(AgentRuntime, ExchangedKnowledgeTracksUpdates) {
  sim::Engine engine;
  AgentRuntime rt(engine);
  SelfAwareAgent a("alpha", quiet()), b("beta", quiet());
  double va = 1.0;
  a.add_sensor("load", [&] { return va; });
  rt.schedule(a, 1.0);
  rt.schedule_exchange({&a, &b}, 1.0);
  engine.run_until(3.2);
  va = 42.0;  // the world changes...
  engine.run_until(6.0);
  // ...and the peer's shared copy follows (newer timestamps win).
  EXPECT_DOUBLE_EQ(b.knowledge().number("shared.alpha.load"), 42.0);
}

TEST(AgentRuntime, SubstrateTicksBeforeAgentStepsAtCoincidentTimes) {
  // Substrate dynamics run at kOrderDynamics (0), agents at kOrderControl
  // (1): whenever a tick and a step land on the same instant, the agent
  // observes the post-tick world.
  sim::Engine engine;
  AgentRuntime rt(engine);
  int world = 0;
  int seen_at_step = -1;
  SelfAwareAgent agent("observer", quiet());
  agent.add_sensor("world", [&] {
    seen_at_step = world;
    return static_cast<double>(world);
  });
  rt.schedule(agent, 1.0);           // registered FIRST...
  rt.schedule_substrate("counter", 0.5, [&] { ++world; });
  engine.run_until(1.0);
  // ...but at t = 1.0 the substrate (ticks at 0.5 and 1.0) still ran first.
  EXPECT_EQ(seen_at_step, 2);
  EXPECT_EQ(rt.substrate_ticks(), 2u);
}

TEST(AgentRuntime, TracksSubstratesByName) {
  sim::Engine engine;
  AgentRuntime rt(engine);
  rt.schedule_substrate("svc.network", 1.0, [] {});
  rt.schedule_substrate("cloud.cluster", 10.0, [] {});
  ASSERT_EQ(rt.substrates().size(), 2u);
  EXPECT_EQ(rt.substrates()[0], "svc.network");
  EXPECT_EQ(rt.substrates()[1], "cloud.cluster");
  engine.run_until(20.0);
  EXPECT_EQ(rt.substrate_ticks(), 22u);  // 20 fast + 2 slow
}

TEST(AgentRuntime, ExchangeRunsAfterStepsAtCoincidentTimes) {
  // Exchange is kOrderExchange (2): at a coincident instant both agents step
  // first, so the exchanged snapshot reflects this round's observations.
  sim::Engine engine;
  AgentRuntime rt(engine);
  SelfAwareAgent a("alpha", quiet()), b("beta", quiet());
  double va = 0.0;
  a.add_sensor("load", [&] {
    va += 1.0;  // each step observes a fresh value
    return va;
  });
  rt.schedule_exchange({&a, &b}, 2.0);  // registered before the agents...
  rt.schedule(a, 2.0);
  rt.schedule(b, 2.0);
  engine.run_until(2.0);
  // ...yet b already holds the value a sampled at t = 2.0.
  EXPECT_DOUBLE_EQ(b.knowledge().number("shared.alpha.load"), 1.0);
}

TEST(AgentRuntime, ProfilesScheduledStreamsIntoMetrics) {
  sim::Engine engine;
  AgentRuntime rt(engine);
  sim::MetricsRegistry metrics;
  rt.set_metrics(&metrics);
  SelfAwareAgent agent("prof", quiet());
  agent.add_sensor("x", [] { return 1.0; });
  rt.schedule(agent, 1.0);
  rt.schedule_substrate("world", 0.5, [] {});
  engine.run_until(10.0);

  const auto steps = metrics.find("profile.prof.count");
  const auto step_ms = metrics.find("profile.prof.ms");
  const auto ticks = metrics.find("profile.world.count");
  ASSERT_TRUE(steps.has_value());
  ASSERT_TRUE(step_ms.has_value());
  ASSERT_TRUE(ticks.has_value());
  EXPECT_DOUBLE_EQ(metrics.value(*steps), 10.0);
  EXPECT_DOUBLE_EQ(metrics.value(*ticks), 20.0);
  EXPECT_EQ(metrics.stats(*step_ms).count(), 10u);
  EXPECT_GE(metrics.stats(*step_ms).min(), 0.0);
}

TEST(AgentRuntime, SelfProfileVisibleToTheAgentAsKnowledge) {
  // The self-awareness hook: the agent can read its own ODA-loop latency
  // from its knowledge base, like any other sensed quantity.
  sim::Engine engine;
  AgentRuntime rt(engine);
  sim::MetricsRegistry metrics;
  rt.set_metrics(&metrics);
  SelfAwareAgent agent("introspect", quiet());
  agent.add_sensor("x", [] { return 1.0; });
  rt.schedule(agent, 1.0);
  engine.run_until(3.0);
  const auto item = agent.knowledge().latest("meta.profile.step_ms");
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->source, "profiler");
  EXPECT_GE(as_number(item->value), 0.0);
}

TEST(AgentRuntime, TracerRecordsRuntimeSpansPerStream) {
  sim::Engine engine;
  AgentRuntime rt(engine);
  sim::TelemetryBus bus;
  sim::Tracer tracer(bus);
  rt.set_tracer(&tracer);
  SelfAwareAgent a("alpha", quiet()), b("beta", quiet());
  a.add_sensor("x", [] { return 1.0; });
  rt.schedule(a, 1.0);
  rt.schedule(b, 2.0);
  rt.schedule_substrate("world", 1.0, [] {});
  rt.schedule_exchange({&a, &b}, 5.0);
  engine.run_until(10.0);

  EXPECT_EQ(tracer.depth(), 0u);
  // Per-stream subjects exist and carry spans: 10 + 5 oda, 10 ticks,
  // 2 exchanges.
  EXPECT_EQ(tracer.spans(), 27u);
  std::size_t runtime_subjects = 0;
  for (sim::SubjectId s = 0; s < bus.subjects(); ++s) {
    if (bus.subject_name(s).rfind("runtime.", 0) == 0) ++runtime_subjects;
  }
  EXPECT_EQ(runtime_subjects, 4u);  // alpha, beta, world, exchange
}

TEST(AgentRuntime, UnprofiledSchedulingIsUnchanged) {
  // No registry, no tracer: the scheduled body runs exactly as before.
  sim::Engine engine;
  AgentRuntime rt(engine);
  SelfAwareAgent agent("plain", quiet());
  agent.add_sensor("x", [] { return 1.0; });
  rt.schedule(agent, 1.0);
  engine.run_until(5.0);
  EXPECT_EQ(agent.steps(), 5u);
  EXPECT_FALSE(agent.knowledge().latest("meta.profile.step_ms").has_value());
}

}  // namespace
}  // namespace sa::core

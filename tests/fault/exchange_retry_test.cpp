// Knowledge-exchange under the ExchangeDrop fault: blocked rounds retry
// with exponential backoff instead of aborting, and only an exhausted
// retry budget counts as a timeout (reported to interaction awareness).
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "core/agent.hpp"
#include "core/runtime.hpp"
#include "fault/adapters.hpp"
#include "fault/fault.hpp"
#include "sim/engine.hpp"

namespace sa::core {
namespace {

/// Writes a public fact for the exchange to carry.
void publish(SelfAwareAgent& agent, std::string_view key, double value) {
  KnowledgeBase& kb = agent.knowledge();
  kb.put_number(kb.key(key), value, 0.0, 1.0, Scope::Public,
                kb.source_id("t"));
}

struct ExchangeRig {
  sim::Engine engine;
  AgentRuntime rt{engine};
  SelfAwareAgent a{"alice"};
  SelfAwareAgent b{"bob"};

  explicit ExchangeRig(double period = 1.0) {
    publish(a, "temp", 21.0);
    publish(b, "temp", 23.0);
    rt.schedule_exchange({&a, &b}, period);
  }
};

TEST(ExchangeRetry, OpenGateExchangesWithoutDropsOrRetries) {
  ExchangeRig rig;
  rig.engine.run_until(3.5);
  EXPECT_GT(rig.rt.items_exchanged(), 0u);
  EXPECT_EQ(rig.rt.exchange_drops(), 0u);
  EXPECT_EQ(rig.rt.exchange_retries(), 0u);
  EXPECT_EQ(rig.rt.exchange_timeouts(), 0u);
  EXPECT_NE(rig.a.knowledge().find("shared.bob.temp"), KnowledgeBase::kNoKey);
  EXPECT_NE(rig.b.knowledge().find("shared.alice.temp"),
            KnowledgeBase::kNoKey);
}

TEST(ExchangeRetry, BlockedRoundsRetryThenTimeOut) {
  ExchangeRig rig;
  rig.rt.set_exchange_blocked(true);
  // One round at t=1: attempt 0 plus 3 retries (default budget), each
  // finding the gate blocked, then one timeout. Backoff = period/8 * 2^k,
  // so the whole ladder resolves well before the next round at t=2.
  rig.engine.run_until(1.9);
  EXPECT_EQ(rig.rt.exchange_drops(), 4u);
  EXPECT_EQ(rig.rt.exchange_retries(), 3u);
  EXPECT_EQ(rig.rt.exchange_timeouts(), 1u);
  EXPECT_EQ(rig.rt.items_exchanged(), 0u);
  EXPECT_EQ(rig.a.knowledge().find("shared.bob.temp"), KnowledgeBase::kNoKey);
}

TEST(ExchangeRetry, TransientBlockResolvesWithinTheRetryBudget) {
  ExchangeRig rig;
  rig.rt.set_exchange_blocked(true);
  // Unblock between the first attempt (t=1) and its first retry
  // (t=1.125): the round must complete late instead of timing out.
  rig.engine.at(1.1, [&] { rig.rt.set_exchange_blocked(false); });
  rig.engine.run_until(1.9);
  EXPECT_EQ(rig.rt.exchange_drops(), 1u);
  EXPECT_EQ(rig.rt.exchange_retries(), 1u);
  EXPECT_EQ(rig.rt.exchange_timeouts(), 0u);
  EXPECT_GT(rig.rt.items_exchanged(), 0u);
  EXPECT_NE(rig.a.knowledge().find("shared.bob.temp"), KnowledgeBase::kNoKey);
}

TEST(ExchangeRetry, TimeoutIsReportedToInteractionAwareness) {
  ExchangeRig rig;
  rig.rt.set_exchange_blocked(true);
  rig.engine.run_until(1.9);
  ASSERT_EQ(rig.rt.exchange_timeouts(), 1u);
  // Each agent saw one failed interaction with its peer — the failed
  // exchange round is evidence, not silence.
  ASSERT_NE(rig.a.interaction(), nullptr);
  EXPECT_EQ(rig.a.interaction()->interactions("bob"), 1u);
  EXPECT_EQ(rig.b.interaction()->interactions("alice"), 1u);
  EXPECT_LT(rig.a.interaction()->reliability("bob"), 1.0);
}

TEST(ExchangeRetry, CustomRetryBudgetAndBackoffAreHonoured) {
  sim::Engine engine;
  AgentRuntime rt(engine);
  SelfAwareAgent a("a"), b("b");
  publish(a, "k", 1.0);
  rt.set_exchange_retry(1, 0.25);
  rt.schedule_exchange({&a, &b}, 1.0);
  rt.set_exchange_blocked(true);
  engine.run_until(1.9);
  // attempt at 1.0, single retry at 1.25, then timeout.
  EXPECT_EQ(rt.exchange_drops(), 2u);
  EXPECT_EQ(rt.exchange_retries(), 1u);
  EXPECT_EQ(rt.exchange_timeouts(), 1u);
}

TEST(ExchangeRetry, RetryLadderOutlivingItsRoundIsSafe) {
  // Regression: a retry event must own its copy of the agents vector.
  // With a large budget the ladder from the round at t=1 stretches past
  // the rounds at t=2..5 (retries at 1.3, 1.9, 3.1, 5.5); each of those
  // firings destroys the engine's copy of the periodic closure, so a
  // retry that still referenced the round's vector would read freed
  // memory (caught under ASan).
  ExchangeRig rig;
  rig.rt.set_exchange_retry(4, 0.3);
  // Re-register with the larger budget; the rig's original stream keeps
  // its defaults and just adds unblocked rounds.
  rig.rt.schedule_exchange({&rig.a, &rig.b}, 1.0);
  rig.rt.set_exchange_blocked(true);
  rig.engine.at(6.0, [&] { rig.rt.set_exchange_blocked(false); });
  rig.engine.run_until(8.5);
  EXPECT_GT(rig.rt.exchange_retries(), 0u);
  EXPECT_GT(rig.rt.exchange_timeouts(), 0u);
  EXPECT_GT(rig.rt.items_exchanged(), 0u);  // resumed once unblocked
  EXPECT_NE(rig.a.knowledge().find("shared.bob.temp"), KnowledgeBase::kNoKey);
}

TEST(ExchangeRetry, InjectorDrivesTheGateThroughTheFaultWindow) {
  // End-to-end: an ExchangeDrop fault window blocks rounds mid-run; when
  // it lifts, exchange resumes — degradation of the collective layer is
  // graceful, not fatal.
  sim::Engine engine;
  AgentRuntime rt(engine);
  SelfAwareAgent a("a"), b("b");
  publish(a, "k", 1.0);
  publish(b, "k", 2.0);
  rt.schedule_exchange({&a, &b}, 1.0);

  fault::Injector inj;
  fault::bind_exchange(inj, rt);
  // Fault window [0.5, 6.5): the rounds inside it defer and time out;
  // rounds after the window exchange normally.
  engine.at(0.5, [&] { inj.surface(0).begin(0, 1.0); });
  engine.at(6.5, [&] { inj.surface(0).end(0, 1.0); });
  engine.run_until(10.5);
  EXPECT_GT(rt.exchange_drops(), 0u);
  EXPECT_GT(rt.exchange_timeouts(), 0u);
  EXPECT_GT(rt.items_exchanged(), 0u);  // resumed after the window
}

}  // namespace
}  // namespace sa::core

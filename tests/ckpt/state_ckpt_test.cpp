// Component serializers (ctest -L ckpt).
//
// Each stateful layer's save_ function is the byte contract the
// attestation compares: a layer replayed by the same inputs saves the
// same bytes and continues identically — RNG streams including the
// Marsaglia normal() spare, knowledge bases (only the retained window, in
// ascending key order), degradation ladders mid-streak, and a fault
// injector whose remaining fault trajectory is byte-identical — while a
// layer in a different state saves different bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/state.hpp"
#include "core/agent.hpp"
#include "core/degrade.hpp"
#include "core/knowledge.hpp"
#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace sa::ckpt {
namespace {

TEST(StateCkpt, RngImageCarriesTheNormalSpare) {
  // Marsaglia's polar method draws two normals per accepted pair and
  // buffers the second: after one normal() the words match a generator
  // that drew two, but the next draws do not. The spare must be in the
  // image or two different streams would attest as equal.
  sim::Rng one(1234), two(1234);
  (void)one.normal();  // spare buffered
  (void)two.normal();
  (void)two.normal();  // spare consumed, no new words drawn
  for (int i = 0; i < 4; ++i) ASSERT_EQ(one.state().s[i], two.state().s[i]);
  Buffer b1, b2;
  save_rng(one.state(), b1);
  save_rng(two.state(), b2);
  EXPECT_NE(b1.data(), b2.data());

  // Replayed by the same draws, the bytes match.
  sim::Rng again(1234);
  (void)again.normal();
  Buffer b3;
  save_rng(again.state(), b3);
  EXPECT_EQ(b3.data(), b1.data());
}

TEST(StateCkpt, NumericItemImageIsLittleEndianDouble) {
  // A base's image is its history limit and key count, then per key its
  // name, item count and items. An item opens with its value as a
  // little-endian IEEE-754 double, followed by time, confidence, the scope
  // byte and the source: nothing else.
  core::KnowledgeBase kb(4);
  kb.put_number(kb.key("k"), -0.1, 3.0, 0.5, core::Scope::Public,
                kb.source_id("src"));
  Buffer image;
  save_knowledge(kb, image);
  Buffer head;  // everything the image holds before its one item
  head.u64(4);
  head.u64(1);
  head.str("k");
  head.u64(1);
  Buffer tail;  // everything after the item's value
  tail.f64(3.0);
  tail.f64(0.5);
  tail.u8(static_cast<std::uint8_t>(core::Scope::Public));
  tail.str("src");
  const std::string value("\x9a\x99\x99\x99\x99\x99\xb9\xbf", 8);  // -0.1
  EXPECT_EQ(image.data(), head.data() + value + tail.data());
}

std::string knowledge_image(const core::KnowledgeBase& kb) {
  Buffer b;
  save_knowledge(kb, b);
  return b.data();
}

TEST(StateCkpt, KnowledgeBaseRestoresVerbatim) {
  auto fill = [](core::KnowledgeBase& kb, int first, bool alpha_first) {
    if (alpha_first)
      kb.put_number(kb.key("alpha"), 2.0, 0.25, 0.9, core::Scope::Public,
                    kb.source_id("peer"));
    for (int i = first; i < 6; ++i) {  // overflows the ring: oldest evicted
      kb.put_number(kb.key("cpu.load"), 0.1 * i, static_cast<double>(i));
    }
    kb.put_number(kb.key("zeta"), 1.0, 0.5);
    if (!alpha_first)
      kb.put_number(kb.key("alpha"), 2.0, 0.25, 0.9, core::Scope::Public,
                    kb.source_id("peer"));
  };
  core::KnowledgeBase kb(4);
  fill(kb, 0, false);
  const std::string image = knowledge_image(kb);

  // Replayed by the same puts, the store attests verbatim.
  core::KnowledgeBase replayed(4);
  fill(replayed, 0, false);
  EXPECT_EQ(knowledge_image(replayed), image);

  // Only the retained window reaches the image, keys in ascending order:
  // a store that never saw the evicted items, and wrote its keys in a
  // different order, saves the same bytes.
  core::KnowledgeBase window(4);
  fill(window, 2, true);
  EXPECT_EQ(knowledge_image(window), image);

  // A different history_limit is a different store.
  core::KnowledgeBase wider(8);
  fill(wider, 0, false);
  EXPECT_NE(knowledge_image(wider), image);
}

std::string ladder_image(const core::DegradationPolicy& p) {
  Buffer b;
  save_ladder(p, b);
  return b.data();
}

TEST(StateCkpt, LadderResumesMidStreak) {
  core::DegradationPolicy::Params p;
  p.fault_active_breach = 1.0;
  p.breach_updates = 2;
  p.recover_updates = 2;
  auto replay = [&p](core::SelfAwareAgent& agent, int updates) {
    auto policy = std::make_unique<core::DegradationPolicy>(agent, p);
    core::KnowledgeBase& kb = agent.knowledge();
    kb.put_number(kb.key("fault.active"), 3.0, 0.0, 1.0, core::Scope::Private,
                  kb.source_id("fault"));
    for (int i = 1; i <= updates; ++i) policy->update(static_cast<double>(i));
    return policy;
  };

  core::SelfAwareAgent agent("a");
  auto policy = replay(agent, 3);  // stepped down to Goal, streak mid-flight
  ASSERT_EQ(policy->mode(), core::DegradationPolicy::Mode::Goal);
  const std::string image = ladder_image(*policy);

  // Replayed by the same updates, the ladder attests byte for byte...
  core::SelfAwareAgent agent2("a");
  auto policy2 = replay(agent2, 3);
  EXPECT_EQ(ladder_image(*policy2), image);
  // ...while one update short (same rung, shorter streak) does not.
  core::SelfAwareAgent agent3("a");
  auto short_policy = replay(agent3, 2);
  ASSERT_EQ(short_policy->mode(), policy->mode());
  EXPECT_NE(ladder_image(*short_policy), image);

  // Both continue identically from the checkpoint.
  policy->update(4.0);
  policy2->update(4.0);
  EXPECT_EQ(policy2->mode(), policy->mode());
  EXPECT_EQ(policy2->degradations(), policy->degradations());
  EXPECT_EQ(ladder_image(*policy2), ladder_image(*policy));
}

/// A surface over counters, as in injector_test.
struct CountingSurface {
  std::vector<int> depth;
  explicit CountingSurface(std::size_t units) : depth(units, 0) {}
  fault::Injector::Surface as_surface(fault::FaultKind kind,
                                      std::string name) {
    fault::Injector::Surface s;
    s.kind = kind;
    s.name = std::move(name);
    s.units = depth.size();
    s.begin = [this](std::size_t unit, double) { ++depth[unit]; };
    s.end = [this](std::size_t unit, double) { --depth[unit]; };
    return s;
  }
};

void expect_records_equal(const std::vector<fault::Injector::Record>& a,
                          const sim::Ring<fault::Injector::Record>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t) << i;
    EXPECT_EQ(a[i].surface, b[i].surface) << i;
    EXPECT_EQ(a[i].unit, b[i].unit) << i;
    EXPECT_EQ(a[i].magnitude, b[i].magnitude) << i;
    EXPECT_EQ(a[i].until, b[i].until) << i;
    EXPECT_EQ(a[i].begin, b[i].begin) << i;
  }
}

/// An injector over counting surfaces, bound to `plan` on its own engine.
struct InjectorWorld {
  sim::Engine engine;
  fault::Injector injector;
  CountingSurface surface{4};
  explicit InjectorWorld(const fault::FaultPlan& plan) {
    injector.add_surface(
        surface.as_surface(fault::FaultKind::LinkLoss, "test.link"));
    injector.bind(engine, plan);
  }
  [[nodiscard]] std::string injector_image() const {
    Buffer b;
    save_injector(injector, b);
    return b.data();
  }
  [[nodiscard]] std::string engine_image() const {
    Buffer b;
    EXPECT_TRUE(save_engine(engine, b).ok());
    return b.data();
  }
};

TEST(StateCkpt, InjectorResumesTheExactFaultTrajectory) {
  const auto plan =
      fault::FaultPlan::parse("link-loss:rate=0.1,dur=4,burst=2;seed=11");

  // Reference: run to 60, snapshot injector + engine, continue to 150.
  InjectorWorld a(plan);
  a.engine.run_until(60.0);
  const std::string inj_snap = a.injector_image();
  const std::string eng_snap = a.engine_image();
  a.engine.run_until(150.0);
  const std::vector<fault::Injector::Record> reference(
      a.injector.log().begin(), a.injector.log().end());
  ASSERT_FALSE(reference.empty());

  // Restore by replay: the same chains run to 60 attest byte for byte,
  // then continue on the byte-identical fault trajectory.
  InjectorWorld b(plan);
  b.engine.run_until(60.0);
  EXPECT_EQ(b.injector_image(), inj_snap);
  EXPECT_EQ(b.engine_image(), eng_snap);
  b.engine.run_until(150.0);
  expect_records_equal(reference, b.injector.log());

  // A world whose plan armed a different chain set (two link-loss
  // processes instead of one) cannot attest against the checkpoint.
  InjectorWorld c(fault::FaultPlan::parse(
      "link-loss:rate=0.1,dur=4,burst=2;link-loss:rate=0.2,dur=1;seed=11"));
  c.engine.run_until(60.0);
  EXPECT_NE(c.injector_image(), inj_snap);
}

}  // namespace
}  // namespace sa::ckpt

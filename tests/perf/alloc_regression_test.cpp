// Steady-state allocation regression tests for the data-oriented hot
// paths: once an Engine's slot arena and heap have warmed up, scheduling
// and dispatching events must not touch the heap; once a KnowledgeBase
// key exists, reads (number/confidence/fresh/contains/history) and
// ring-overwrite writes must not either. These contracts are what the
// pooled-kernel/interned-store refactor bought — a regression here is a
// performance bug even while every behavioural test still passes.
//
// The binary links the shared operator-new counter
// (tests/support/alloc_counter), so no other suites are linked into it.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <variant>

#include "core/knowledge.hpp"
#include "sim/engine.hpp"
#include "support/alloc_counter.hpp"

namespace {

using sa::test::support::allocs;

TEST(EngineAlloc, SteadyStateOneShotCycleIsAllocFree) {
  sa::sim::Engine eng;
  // Warm up: first at() grows the arena and heap; the slot is freed on
  // dispatch and must be reused by every later cycle.
  double t = 0.0;
  for (int i = 0; i < 64; ++i) {
    t += 1.0;
    eng.at(t, [] {});
    ASSERT_TRUE(eng.step());
  }
  const auto before = allocs();
  for (int i = 0; i < 1000; ++i) {
    t += 1.0;
    eng.at(t, [] {});  // captureless lambda: fits std::function's SOO
    ASSERT_TRUE(eng.step());
  }
  EXPECT_EQ(allocs(), before) << "one-shot schedule+dispatch allocated";
}

TEST(EngineAlloc, SteadyStatePeriodicFiringIsAllocFree) {
  sa::sim::Engine eng;
  int fired = 0;
  eng.every(0.5, [&fired] {
    ++fired;
    return true;
  });
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(eng.step());  // warm up
  const auto before = allocs();
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(eng.step());
  EXPECT_EQ(allocs(), before) << "periodic re-arm+dispatch allocated";
  EXPECT_EQ(fired, 1016);
}

TEST(EngineAlloc, WarmHeapMixedScheduleIsAllocFree) {
  sa::sim::Engine eng;
  // Fill the heap past its steady size so later pushes never reallocate.
  double t = 0.0;
  for (int i = 0; i < 256; ++i) eng.at(static_cast<double>(i + 1), [] {});
  for (int i = 0; i < 256; ++i) {
    t += 1.0;
    ASSERT_TRUE(eng.step());
  }
  for (int i = 0; i < 128; ++i) eng.at(t + static_cast<double>(i + 1), [] {});
  const auto before = allocs();
  for (int i = 0; i < 128; ++i) {
    eng.at(t + 200.0 + static_cast<double>(i), [] {});
    ASSERT_TRUE(eng.step());
    ASSERT_TRUE(eng.step());
  }
  EXPECT_EQ(allocs(), before) << "warm-heap schedule/dispatch allocated";
}

TEST(KnowledgeAlloc, ReadPathsAreAllocFree) {
  sa::core::KnowledgeBase kb(16);
  for (int i = 0; i < 32; ++i) {
    kb.put_number("metric." + std::to_string(i), i, 0.0, 1.0);
  }
  const auto before = allocs();
  double acc = 0.0;
  bool all = true;
  for (int i = 0; i < 1000; ++i) {
    acc += kb.number("metric.7");
    acc += kb.confidence("metric.13");
    all = all && kb.contains("metric.0");
    all = all && kb.fresh("metric.21", 0.5);
    const auto h = kb.history("metric.3");
    if (!h.empty()) {
      if (const auto* d = std::get_if<double>(&h.back().value)) acc += *d;
    }
  }
  EXPECT_EQ(allocs(), before) << "knowledge read path allocated";
  EXPECT_TRUE(all);
  EXPECT_GT(acc, 0.0);
}

TEST(KnowledgeAlloc, RingOverwriteWriteIsAllocFree) {
  sa::core::KnowledgeBase kb(8);
  // Fill the ring: after history_limit puts the ring stops growing and
  // every further put overwrites the oldest slot in place.
  for (int i = 0; i < 16; ++i) kb.put_number("sensor.load", i, i);
  const auto before = allocs();
  for (int i = 0; i < 1000; ++i) {
    kb.put_number("sensor.load", static_cast<double>(i),
                  static_cast<double>(16 + i));
  }
  EXPECT_EQ(allocs(), before) << "ring-overwrite put_number allocated";
  EXPECT_EQ(kb.history("sensor.load").size(), 8u);
  EXPECT_EQ(kb.number("sensor.load"), 999.0);
}

TEST(KnowledgeAlloc, StringViewLookupNeedsNoTemporaryString) {
  sa::core::KnowledgeBase kb(4);
  // A key long enough to defeat SSO: if the lookup path built a
  // std::string from the view, this test would observe the allocation.
  const char* key = "subsystem.component.metric.with.a.deliberately.long.name";
  kb.put_number(key, 42.0, 0.0);
  const auto before = allocs();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(kb.number(std::string_view(key)), 42.0);
  }
  EXPECT_EQ(allocs(), before) << "string_view lookup materialised a string";
}

}  // namespace

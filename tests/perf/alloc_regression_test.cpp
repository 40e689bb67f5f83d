// Steady-state allocation regression tests for the data-oriented hot
// paths: once an Engine's slot arena and heap have warmed up, scheduling
// and dispatching events must not touch the heap; once a KnowledgeBase
// key exists, reads (number/confidence/fresh/contains/latest) and
// ring-overwrite writes must not either. These contracts are what the
// pooled-kernel/interned-store refactor bought — a regression here is a
// performance bug even while every behavioural test still passes.
//
// The binary links the shared operator-new counter
// (tests/support/alloc_counter), so no other suites are linked into it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <variant>

#include "core/knowledge.hpp"
#include "sim/engine.hpp"
#include "support/alloc_counter.hpp"

namespace {

using sa::test::support::allocs;
using sa::test::support::thread_allocs;

TEST(AllocCounter, ThreadCountIgnoresOtherThreads) {
  // The serve tests need allocations on worker threads counted; E10's
  // concurrent kernels need them not counted against the calling thread.
  std::atomic<bool> go{false}, done{false};
  std::string theirs, mine;
  std::thread worker([&] {
    while (!go.load()) std::this_thread::yield();
    theirs.assign(64, 'x');  // past SSO: one heap allocation
    done.store(true);
  });
  const std::uint64_t all0 = allocs(), own0 = thread_allocs();
  go.store(true);
  while (!done.load()) std::this_thread::yield();
  const std::uint64_t all1 = allocs(), own1 = thread_allocs();
  mine.assign(64, 'y');
  const std::uint64_t all2 = allocs(), own2 = thread_allocs();
  worker.join();

  EXPECT_GT(all1, all0) << "another thread's allocation was not counted";
  EXPECT_EQ(own1, own0) << "another thread's allocation hit this thread";
  EXPECT_GT(all2, all1);
  EXPECT_GT(own2, own1);
  EXPECT_EQ(theirs.size() + mine.size(), 128u);
}

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
    if (const auto item = kb.latest("metric.3")) {
      if (const auto* d = std::get_if<double>(&item->value)) acc += *d;
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

TEST(KnowledgeAlloc, CachedIdWriteIsAllocFree) {
  // The awareness processes' hot path: ids resolved once, then every write
  // by id. Once the rings are full no write touches the heap.
  sa::core::KnowledgeBase kb(8);
  sa::core::KnowledgeBase::KeyId ids[3] = {
      sa::core::KnowledgeBase::kNoKey, sa::core::KnowledgeBase::kNoKey,
      sa::core::KnowledgeBase::kNoKey};
  const auto src = kb.source_id("time");
  auto write = [&](int i) {
    const double t = static_cast<double>(i);
    kb.put_number(kb.key(ids[0], "forecast.", "tracking"), t, t, 1.0,
                  sa::core::Scope::Private, src);
    kb.put_number(kb.key(ids[1], "forecast.", "tracking", ".mae"), t, t, 1.0,
                  sa::core::Scope::Private, src);
    kb.put_number(kb.key(ids[2], "forecast.", "tracking", ".model"), t, t,
                  1.0, sa::core::Scope::Private, src);
  };
  for (int i = 0; i < 16; ++i) write(i);
  const auto before = allocs();
  for (int i = 16; i < 1016; ++i) write(i);
  EXPECT_EQ(allocs(), before) << "cached-id put_number allocated";
  EXPECT_EQ(kb.number("forecast.tracking.mae"), 1015.0);
}

TEST(KnowledgeAlloc, BoxedValueOverwriteReusesItsStorage) {
  // A string value lives beside the ring; the write that overwrites its
  // slot reclaims it, so a wrapped ring of strings stays bounded: warm
  // writes of small (SSO) strings allocate nothing at all.
  sa::core::KnowledgeBase kb(4);
  auto put = [&](int i) {
    kb.put("label", sa::core::KnowledgeItem{
                        sa::core::Value{std::string(1, static_cast<char>(
                                                           'a' + i % 26))},
                        static_cast<double>(i), 1.0,
                        sa::core::Scope::Private, ""});
  };
  for (int i = 0; i < 16; ++i) put(i);
  const auto before = allocs();
  for (int i = 16; i < 1016; ++i) put(i);
  EXPECT_EQ(allocs(), before) << "boxed overwrite grew the side store";
  EXPECT_EQ(kb.history("label").size(), 4u);
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

// Steady-state allocation regression tests for the data-oriented hot
// paths: once an Engine's slot arena and heap have warmed up, scheduling
// and dispatching events must not touch the heap; once a KnowledgeBase
// key exists, reads (number/confidence/fresh/contains/latest) and
// ring-overwrite writes must not either; and once an agent's awareness
// processes have seen their signals, their updates must not either. These
// contracts are what the pooled-kernel/interned-store and dense-agent
// refactors bought — a regression here is a performance bug even while
// every behavioural test still passes.
//
// The binary links the shared operator-new counter
// (tests/support/alloc_counter), so no other suites are linked into it.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

#include "core/goal_awareness.hpp"
#include "core/knowledge.hpp"
#include "core/meta.hpp"
#include "core/stimulus.hpp"
#include "core/time_awareness.hpp"
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
    if (const auto item = kb.latest("metric.3")) acc += item->value;
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

TEST(KnowledgeAlloc, ComposedKeyInternNeedsNoTemporaryString) {
  // A writer's first write interns prefix + name + suffix. The name is
  // assembled in the base's own name storage, which the first key sized
  // for dozens more, so interning further keys allocates only their
  // history blocks, on their first writes.
  sa::core::KnowledgeBase kb;
  sa::core::KnowledgeBase::KeyId first = sa::core::KnowledgeBase::kNoKey;
  kb.key(first, "stimulus.", "first", ".baseline");
  sa::core::KnowledgeBase::KeyId ids[8];
  for (auto& id : ids) id = sa::core::KnowledgeBase::kNoKey;
  const char* names[8] = {"tracking", "messages", "lost", "owned",
                          "latency", "throughput", "power", "queue"};
  const auto before = allocs();
  for (int i = 0; i < 8; ++i) {
    kb.key(ids[i], "stimulus.", names[i], ".baseline");
  }
  EXPECT_EQ(allocs(), before) << "interning a composed key allocated";
  EXPECT_EQ(kb.find("stimulus.throughput.baseline"), ids[5]);
  // An existing key resolves to its id without keeping a second name.
  sa::core::KnowledgeBase::KeyId again = sa::core::KnowledgeBase::kNoKey;
  EXPECT_EQ(kb.key(again, "stimulus.", "lost", ".baseline"), ids[2]);
  EXPECT_EQ(kb.size(), 9u);
}

TEST(AgentAlloc, WarmAwarenessUpdatesAreAllocFree) {
  // A camera-shaped observation: four signals, every slot sampled.
  sa::core::SignalTable table;
  for (const char* name : {"tracking", "messages", "lost", "owned"}) {
    table.add(name);
  }
  sa::core::Observation obs(table);
  sa::core::KnowledgeBase kb;
  sa::core::StimulusAwareness stimulus(kb);
  // A seasonal ensemble scored at horizon 2: every member, every tail.
  sa::core::TimeAwareness time(kb, {4, 1.0, 2});
  sa::core::GoalModel goals;
  goals.add_objective({"tracking", sa::core::utility::rising(0.0, 8.0), 2.0});
  goals.add_objective({"lost", sa::core::utility::falling(0.0, 4.0), 1.0});
  goals.add_constraint({"few-messages",
                        [](const sa::core::MetricMap& m) {
                          const auto it = m.find("messages");
                          return it == m.end() || it->second < 6.0;
                        },
                        false});
  // "spare" names no sensor and no key: it stays absent every step.
  sa::core::GoalAwareness goal(kb, goals, {"tracking", "messages", "lost",
                                           "spare"});
  sa::core::MetaSelfAwareness meta(kb);
  meta.watch(stimulus);
  meta.watch(time);
  meta.watch(goal);
  std::size_t resets = 0;
  meta.on_drift("count", [&resets] { ++resets; });

  auto update = [&](int i) {
    const double t = static_cast<double>(i);
    obs.clear();
    for (std::size_t slot = 0; slot < table.size(); ++slot) {
      obs.set(slot, 3.0 + static_cast<double>(slot) + std::sin(0.3 * t));
    }
    stimulus.update(t, obs);
    time.update(t, obs);
    goal.update(t, obs);
    meta.update(t, obs);
  };
  // Warm-up: every key's history fills (128 slots) and every model exists.
  for (int i = 0; i < 300; ++i) update(i);
  const auto before = allocs();
  for (int i = 300; i < 1300; ++i) update(i);
  EXPECT_EQ(allocs(), before) << "a warm awareness update allocated";
  EXPECT_EQ(goal.last_metrics().size(), 3u);
  EXPECT_NE(time.forecast("owned", 2), 0.0);
}

}  // namespace

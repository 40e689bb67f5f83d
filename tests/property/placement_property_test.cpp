// Property tests for the multicore run queue's O(1) backlog bounds and the
// placement decisions taken from them: the bounds must contain the exact
// FIFO-order backlog after every mutation, at every magnitude and queue
// length, and exact ETA ties must still go to the lowest core index.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "multicore/platform.hpp"
#include "sim/rng.hpp"

namespace sa::multicore {
namespace {

// Log-uniform work in [1e-12, 1e3] giga-ops.
Task random_task(sim::Rng& rng) {
  Task t;
  t.total = t.remaining = std::pow(10.0, rng.uniform(-12.0, 3.0));
  return t;
}

// Drains a random share of the front task: sometimes all of it, sometimes
// a sliver, usually something in between.
double random_done(sim::Rng& rng, double remaining) {
  switch (rng.below(4)) {
    case 0: return remaining;
    case 1: return remaining * 1e-9;
    default: return remaining * rng.uniform();
  }
}

::testing::AssertionResult bounds_contain(const TaskRing& q, double exact) {
  double lo = 0.0, hi = 0.0;
  q.backlog_bounds(lo, hi);
  if (lo <= exact && exact <= hi) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "backlog " << exact << " outside [" << lo << ", " << hi
         << "] at size " << q.size();
}

class TaskRingBoundsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TaskRingBoundsTest, RandomOpsKeepBacklogInsideBounds) {
  sim::Rng rng(GetParam());
  TaskRing q;
  std::vector<Task> drained;
  for (int op = 0; op < 5000; ++op) {
    const double u = rng.uniform();
    if (q.empty() || u < 0.45) {
      q.push_back(random_task(rng));
    } else if (u < 0.75) {
      q.consume_front(random_done(rng, q.front().remaining));
    } else if (u < 0.995) {
      q.pop_front();
    } else {
      drained.clear();
      q.drain_into(drained);
    }
    ASSERT_TRUE(bounds_contain(q, q.backlog())) << "op " << op;
  }
}

TEST_P(TaskRingBoundsTest, QueueThatNeverEmptiesKeepsItsBounds) {
  // The running sum is never reset, so its error bound has to grow with
  // every one of the 100k updates and still hold at the end.
  sim::Rng rng(GetParam() ^ 0x5eed);
  TaskRing q;
  for (int i = 0; i < 64; ++i) q.push_back(random_task(rng));
  for (int op = 0; op < 100000; ++op) {
    const double u = rng.uniform();
    if (u < 0.35) {
      q.push_back(random_task(rng));
    } else if (u < 0.65 || q.size() <= 32) {
      q.consume_front(random_done(rng, q.front().remaining));
    } else {
      q.pop_front();
    }
    ASSERT_FALSE(q.empty());
    ASSERT_TRUE(bounds_contain(q, q.backlog())) << "op " << op;
  }
}

TEST_P(TaskRingBoundsTest, HundredThousandTaskQueue) {
  sim::Rng rng(GetParam() ^ 0xb16);
  TaskRing q;
  // Appending extends the FIFO sum by one add, so the reference grows
  // with the queue instead of being re-summed per push.
  double exact = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const Task t = random_task(rng);
    q.push_back(t);
    exact += t.remaining;
    ASSERT_TRUE(bounds_contain(q, exact)) << "push " << i;
    if (i % 10000 == 0) ASSERT_EQ(exact, q.backlog());
  }
  ASSERT_EQ(exact, q.backlog());
  for (int op = 0; op < 300; ++op) {
    if (rng.chance(0.5)) {
      q.consume_front(random_done(rng, q.front().remaining));
    } else if (rng.chance(0.5)) {
      q.pop_front();
    } else {
      q.push_back(random_task(rng));
    }
    ASSERT_TRUE(bounds_contain(q, q.backlog())) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaskRingBoundsTest,
                         ::testing::Values(21, 22, 23, 24));

TEST(TaskRingBounds, EmptyingResetsToExactZero) {
  TaskRing q;
  Task big;
  big.total = big.remaining = 1e3;
  Task tiny;
  tiny.total = tiny.remaining = 1e-12;
  q.push_back(big);
  q.push_back(tiny);
  q.consume_front(0.3);
  q.pop_front();
  q.pop_front();
  double lo = -1.0, hi = -1.0;
  q.backlog_bounds(lo, hi);
  EXPECT_EQ(lo, 0.0);
  EXPECT_EQ(hi, 0.0);
}

// A chip of `n` identical cores, so every ETA tie is a real tie.
PlatformConfig identical_cores(std::size_t n) {
  PlatformConfig cfg;
  for (std::size_t i = 0; i < n; ++i) {
    cfg.cores.push_back({"core" + std::to_string(i), false, 1.0, 0.2, 0.5});
  }
  return cfg;
}

TEST(Placement, EmptyIdenticalQueuesFillInIndexOrder) {
  // Every arrival's work outlives the run, so queue depths record where
  // each task went. All queues empty: core 0 wins; then cores 1.. tie at
  // zero backlog and the lowest index wins each time.
  Platform p(identical_cores(4), 5);
  p.set_workload(400.0, 1e6, 0.0);  // two arrivals per tick on average
  while (p.queued() == 0) p.step();
  const std::size_t k = p.queued();
  ASSERT_LE(k, p.cores());
  for (std::size_t c = 0; c < p.cores(); ++c) {
    EXPECT_EQ(p.queued(c), c < k ? 1u : 0u) << "core " << c;
  }
}

TEST(Placement, EqualBacklogsGoToTheLowestIndex) {
  // Zero-work tasks give every queue a backlog of exactly 0 whatever its
  // length, so each re-homed orphan sees a tie between cores 1-3 and all
  // of them must land on core 1, the lowest surviving index.
  Platform p(identical_cores(4), 6);
  for (std::size_t c = 0; c < p.cores(); ++c) p.fail_core(c);
  p.set_workload(2000.0, 0.0, 0.0);
  p.step();
  const std::size_t parked = p.queued(0);
  ASSERT_GT(parked, 1u);
  for (std::size_t c = 0; c < p.cores(); ++c) p.restore_core(c);
  p.fail_core(0);
  EXPECT_EQ(p.queued(0), 0u);
  EXPECT_EQ(p.queued(1), parked);
  EXPECT_EQ(p.queued(2), 0u);
  EXPECT_EQ(p.queued(3), 0u);
}

TEST(Placement, EveryCoreFailedParksOnCoreZero) {
  Platform p(PlatformConfig::big_little(2, 4), 7);
  for (std::size_t c = 0; c < p.cores(); ++c) p.fail_core(c);
  p.set_workload(200.0, 0.5, 0.0);
  p.run_for(1.0);
  ASSERT_GT(p.queued(), 0u);
  EXPECT_EQ(p.queued(0), p.queued());
}

TEST(Placement, ZeroSpeedCoreIsNeverChosen) {
  // Core 0 is the only big core and has ipc 0: with work parked on it its
  // ETA is +inf, so the full scan finds no big core and PackBig falls back
  // to core 1, even though core 0 is then the only candidate of pass 0.
  PlatformConfig cfg;
  cfg.cores.push_back({"stalled", true, 0.0, 0.2, 0.5});
  cfg.cores.push_back({"little", false, 1.0, 0.2, 0.5});
  Platform p(std::move(cfg), 9);
  p.fail_core(0);
  p.fail_core(1);
  p.set_workload(400.0, 1e6, 0.0);
  while (p.queued() == 0) p.step();
  const std::size_t parked = p.queued(0);
  p.restore_core(0);
  p.restore_core(1);
  p.set_mapping(Mapping::PackBig);
  p.run_for(0.1);
  EXPECT_EQ(p.queued(0), parked);
  EXPECT_GT(p.queued(1), 0u);
}

TEST(Placement, MissingPreferredClassFallsBackToAllCores) {
  // PackBig on a chip with no big core, and PackLittle on one with no
  // LITTLE core, must place exactly as Balanced does, tick by tick.
  struct Case {
    PlatformConfig cfg;
    Mapping absent;
  };
  for (auto& [cfg, absent] :
       {Case{PlatformConfig::big_little(0, 4), Mapping::PackBig},
        Case{PlatformConfig::big_little(3, 0), Mapping::PackLittle}}) {
    Platform balanced(cfg, 8);
    Platform packed(cfg, 8);
    packed.set_mapping(absent);
    for (auto* p : {&balanced, &packed}) {
      p->set_all_freq(0);
      p->set_workload(60.0, 0.3, 0.0);  // overload: queues keep growing
    }
    for (int tick = 0; tick < 2000; ++tick) {
      balanced.step();
      packed.step();
      for (std::size_t c = 0; c < cfg.cores.size(); ++c) {
        ASSERT_EQ(packed.queued(c), balanced.queued(c))
            << mapping_name(absent) << " tick " << tick << " core " << c;
      }
    }
    EXPECT_GT(packed.queued(), 100u);
  }
}

}  // namespace
}  // namespace sa::multicore

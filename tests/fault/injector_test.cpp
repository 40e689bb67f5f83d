#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/telemetry.hpp"

namespace sa::fault {
namespace {

/// A surface over `units` counters: begin increments, end decrements, so
/// tests can observe exactly which units are held down and by how many
/// overlapping faults.
struct CountingSurface {
  std::vector<int> depth;
  std::vector<double> last_magnitude;

  explicit CountingSurface(std::size_t units)
      : depth(units, 0), last_magnitude(units, 0.0) {}

  Injector::Surface as_surface(FaultKind kind, std::string name) {
    Injector::Surface s;
    s.kind = kind;
    s.name = std::move(name);
    s.units = depth.size();
    s.begin = [this](std::size_t unit, double magnitude) {
      ++depth[unit];
      last_magnitude[unit] = magnitude;
    };
    s.end = [this](std::size_t unit, double) { --depth[unit]; };
    return s;
  }
};

std::vector<Injector::Record> run_plan(const FaultPlan& plan, double horizon,
                                       std::size_t units = 4) {
  sim::Engine engine;
  Injector inj;
  CountingSurface surface(units);
  inj.add_surface(surface.as_surface(FaultKind::LinkLoss, "test.link"));
  inj.bind(engine, plan);
  engine.run_until(horizon);
  return {inj.log().begin(), inj.log().end()};
}

TEST(Injector, TwoRunsProduceIdenticalRecords) {
  const auto plan =
      FaultPlan::parse("link-loss:rate=0.2,dur=5,burst=2;seed=9");
  const auto a = run_plan(plan, 200.0);
  const auto b = run_plan(plan, 200.0);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].t, b[i].t);
    EXPECT_EQ(a[i].surface, b[i].surface);
    EXPECT_EQ(a[i].unit, b[i].unit);
    EXPECT_DOUBLE_EQ(a[i].magnitude, b[i].magnitude);
    EXPECT_DOUBLE_EQ(a[i].until, b[i].until);
    EXPECT_EQ(a[i].begin, b[i].begin);
  }
}

TEST(Injector, DifferentSeedsProduceDifferentSchedules) {
  auto plan = FaultPlan::parse("link-loss:rate=0.2,dur=5");
  plan.seed = 1;
  const auto a = run_plan(plan, 200.0);
  plan.seed = 2;
  const auto b = run_plan(plan, 200.0);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  // Same process statistics, but the onset times must differ.
  bool any_difference = a.size() != b.size();
  for (std::size_t i = 0; !any_difference && i < a.size(); ++i) {
    any_difference = a[i].t != b[i].t || a[i].unit != b[i].unit;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Injector, EmptyPlanIsANoOp) {
  sim::Engine engine;
  Injector inj;
  CountingSurface surface(4);
  inj.add_surface(surface.as_surface(FaultKind::LinkLoss, "test.link"));
  EXPECT_EQ(inj.bind(engine, FaultPlan{}), 0u);
  engine.run_until(1000.0);
  EXPECT_EQ(inj.injected(), 0u);
  EXPECT_EQ(inj.active(), 0u);
  EXPECT_TRUE(inj.log().empty());
  EXPECT_TRUE(std::isinf(inj.last_onset()));
  for (const int d : surface.depth) EXPECT_EQ(d, 0);
}

TEST(Injector, UnmatchedProcessesAreCountedNotArmed) {
  sim::Engine engine;
  Injector inj;
  CountingSurface surface(2);
  inj.add_surface(surface.as_surface(FaultKind::LinkLoss, "test.link"));
  const auto plan =
      FaultPlan::parse("core-fail:rate=1;vm-preempt:rate=1;link-loss:rate=1");
  EXPECT_EQ(inj.bind(engine, plan), 1u);  // only link-loss matches
  EXPECT_EQ(inj.unmatched_processes(), 2u);
}

TEST(Injector, TransientFaultsRestoreAndBalanceCounters) {
  sim::Engine engine;
  Injector inj;
  CountingSurface surface(3);
  inj.add_surface(surface.as_surface(FaultKind::LinkLoss, "test.link"));
  const auto plan =
      FaultPlan::parse("link-loss:rate=0.5,dur=2,end=100;seed=3");
  inj.bind(engine, plan);
  engine.run_until(1000.0);  // long tail: every transient has expired
  ASSERT_GT(inj.injected(), 0u);
  EXPECT_EQ(inj.restored(), inj.injected());
  EXPECT_EQ(inj.active(), 0u);
  for (const int d : surface.depth) EXPECT_EQ(d, 0);
}

TEST(Injector, PermanentFaultsNeverRestore) {
  sim::Engine engine;
  Injector inj;
  CountingSurface surface(3);
  inj.add_surface(surface.as_surface(FaultKind::LinkLoss, "test.link"));
  const auto plan =
      FaultPlan::parse("link-loss:rate=0.5,dur=-1,end=50;seed=3");
  inj.bind(engine, plan);
  engine.run_until(1000.0);
  ASSERT_GT(inj.injected(), 0u);
  EXPECT_EQ(inj.restored(), 0u);
  EXPECT_EQ(inj.active(), inj.injected());
  int held = 0;
  for (const int d : surface.depth) held += d;
  EXPECT_EQ(static_cast<std::size_t>(held), inj.injected());
  for (const auto& rec : inj.log()) {
    if (rec.begin) {
      EXPECT_TRUE(std::isinf(rec.until));
    }
  }
}

TEST(Injector, ProcessWindowIsRespected) {
  const auto plan =
      FaultPlan::parse("link-loss:rate=2,dur=1,start=10,end=20;seed=5");
  const auto records = run_plan(plan, 100.0);
  ASSERT_FALSE(records.empty());
  for (const auto& rec : records) {
    if (!rec.begin) continue;
    EXPECT_GE(rec.t, 10.0);
    EXPECT_LE(rec.t, 20.0);
  }
}

TEST(Injector, LastOnsetTracksTheLatestBegin) {
  sim::Engine engine;
  Injector inj;
  CountingSurface surface(4);
  inj.add_surface(surface.as_surface(FaultKind::LinkLoss, "test.link"));
  inj.bind(engine, FaultPlan::parse("link-loss:rate=0.3,dur=2,end=60;seed=8"));
  engine.run_until(200.0);
  double latest = -std::numeric_limits<double>::infinity();
  for (const auto& rec : inj.log()) {
    if (rec.begin) latest = std::max(latest, rec.t);
  }
  EXPECT_DOUBLE_EQ(inj.last_onset(), latest);
}

TEST(Injector, LogIsABoundedRingKeepingTheNewest) {
  // A storm of ~10 records a second overflows the 4096-entry log.
  sim::Engine engine;
  Injector inj;
  CountingSurface surface(4);
  inj.add_surface(surface.as_surface(FaultKind::LinkLoss, "test.link"));
  std::vector<Injector::Record> all;
  inj.subscribe([&](const Injector::Record& rec, std::size_t) {
    all.push_back(rec);
  });
  inj.bind(engine, FaultPlan::parse("link-loss:rate=5,dur=0.5;seed=4"));
  engine.run_until(1000.0);
  const auto& log = inj.log();
  ASSERT_EQ(log.capacity(), 4096u);
  ASSERT_EQ(all.size(), inj.injected() + inj.restored());
  ASSERT_GT(all.size(), log.capacity());  // storm overflowed it
  ASSERT_EQ(log.size(), log.capacity());
  // Oldest first, and exactly the tail of the run.
  const std::size_t first = all.size() - log.size();
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].t, all[first + i].t) << i;
    EXPECT_EQ(log[i].unit, all[first + i].unit) << i;
    EXPECT_EQ(log[i].begin, all[first + i].begin) << i;
  }
}

TEST(Injector, ListenersSeeEveryEventWithActiveCount) {
  sim::Engine engine;
  Injector inj;
  CountingSurface surface(4);
  inj.add_surface(surface.as_surface(FaultKind::LinkLoss, "test.link"));
  std::size_t begins = 0, ends = 0, max_active = 0;
  inj.subscribe([&](const Injector::Record& rec, std::size_t active) {
    (rec.begin ? begins : ends) += 1;
    max_active = std::max(max_active, active);
  });
  inj.bind(engine, FaultPlan::parse("link-loss:rate=0.5,dur=3,end=80;seed=2"));
  engine.run_until(300.0);
  EXPECT_EQ(begins, inj.injected());
  EXPECT_EQ(ends, inj.restored());
  EXPECT_GE(max_active, 1u);
}

TEST(Injector, TelemetryGetsOneFailurePerOnset) {
  sim::Engine engine;
  sim::TelemetryBus bus;
  Injector inj;
  CountingSurface surface(4);
  inj.add_surface(surface.as_surface(FaultKind::LinkLoss, "test.link"));
  inj.set_telemetry(&bus);
  inj.bind(engine, FaultPlan::parse("link-loss:rate=0.5,dur=3;seed=2"));
  engine.run_until(100.0);
  ASSERT_GT(inj.injected(), 0u);
  EXPECT_EQ(bus.count(sim::TelemetryBus::kFailure), inj.injected());
}

TEST(Injector, RecordsNameTheirSurfaceByIndex) {
  // Planned chains on the two link surfaces and an operator fault on the
  // core surface: each record holds the index of the surface it hit.
  sim::Engine engine;
  Injector inj;
  CountingSurface links_a(2), cores(2), links_b(2);
  inj.add_surface(links_a.as_surface(FaultKind::LinkLoss, "a"));
  inj.add_surface(cores.as_surface(FaultKind::CoreFail, "b"));
  inj.add_surface(links_b.as_surface(FaultKind::LinkLoss, "c"));
  inj.bind(engine, FaultPlan::parse("link-loss:rate=0.5,dur=1;seed=7"));
  engine.at(5.0, [&] {
    EXPECT_TRUE(inj.inject_now(engine, FaultKind::CoreFail, 3, 1.0, 2.0));
  });
  engine.run_until(20.0);
  std::vector<std::size_t> hits(inj.surfaces(), 0);
  for (const auto& rec : inj.log()) {
    ASSERT_LT(rec.surface, inj.surfaces());
    ++hits[rec.surface];
    if (rec.surface == 1) {
      EXPECT_EQ(rec.t, rec.begin ? 5.0 : 7.0);
      EXPECT_EQ(rec.unit, 1u);  // 3 wraps onto the surface's 2 units
    }
  }
  EXPECT_GT(hits[0], 0u);
  EXPECT_EQ(hits[1], 2u);  // the operator fault's onset and restore
  EXPECT_GT(hits[2], 0u);
  EXPECT_EQ(cores.depth[1], 0);
}

TEST(Injector, BurstinessClustersOnsets) {
  // With burst=4 the onsets arrive in clumps: the gap distribution is
  // strongly bimodal. Assert a crude signature — many inter-onset gaps far
  // below the mean inter-burst spacing.
  const auto plan =
      FaultPlan::parse("link-loss:rate=0.1,dur=1,burst=4;seed=6");
  const auto records = run_plan(plan, 4000.0, 8);
  std::vector<double> onsets;
  for (const auto& rec : records) {
    if (rec.begin) onsets.push_back(rec.t);
  }
  ASSERT_GT(onsets.size(), 20u);
  std::size_t tight = 0;
  for (std::size_t i = 1; i < onsets.size(); ++i) {
    if (onsets[i] - onsets[i - 1] < 2.0) ++tight;  // mean gap is 10 s
  }
  EXPECT_GT(tight, onsets.size() / 3);
}

TEST(Injector, SurfaceAccessorExposesRegistrationOrder) {
  Injector inj;
  CountingSurface surface(2);
  inj.add_surface(surface.as_surface(FaultKind::CoreFail, "a"));
  inj.add_surface(surface.as_surface(FaultKind::LinkLoss, "b"));
  ASSERT_EQ(inj.surfaces(), 2u);
  EXPECT_EQ(inj.surface(0).name, "a");
  EXPECT_EQ(inj.surface(1).kind, FaultKind::LinkLoss);
  inj.surface(0).begin(1, 2.5);
  EXPECT_EQ(surface.depth[1], 1);
  EXPECT_DOUBLE_EQ(surface.last_magnitude[1], 2.5);
}

}  // namespace
}  // namespace sa::fault

// Tests for the self-profiling metrics registry: registration semantics,
// hot-path updates, snapshots (allocation contracts live in
// telemetry_test.cpp, which owns the global operator-new counter).
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/metrics.hpp"

namespace sa::sim {
namespace {

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  MetricsRegistry reg;
  const auto a = reg.counter("ops");
  const auto b = reg.counter("ops");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.name(a), "ops");
  EXPECT_EQ(reg.kind(a), MetricsRegistry::Kind::Counter);
}

TEST(MetricsRegistry, ReRegisteringWithDifferentKindThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.timer("x"), std::logic_error);
}

TEST(MetricsRegistry, CounterAccumulatesAndGaugeOverwrites) {
  MetricsRegistry reg;
  const auto c = reg.counter("ops");
  const auto g = reg.gauge("level");
  reg.add(c);
  reg.add(c, 2.5);
  reg.set(g, 10.0);
  reg.set(g, 4.0);
  EXPECT_DOUBLE_EQ(reg.value(c), 3.5);
  EXPECT_DOUBLE_EQ(reg.value(g), 4.0);
}

TEST(MetricsRegistry, TimerFoldsObservationsIntoStats) {
  MetricsRegistry reg;
  const auto t = reg.timer("step.ms");
  reg.observe(t, 2.0);
  reg.observe(t, 4.0);
  reg.observe(t, 6.0);
  EXPECT_DOUBLE_EQ(reg.value(t), 3.0);  // observation count
  EXPECT_EQ(reg.stats(t).count(), 3u);
  EXPECT_DOUBLE_EQ(reg.stats(t).mean(), 4.0);
  EXPECT_DOUBLE_EQ(reg.stats(t).min(), 2.0);
  EXPECT_DOUBLE_EQ(reg.stats(t).max(), 6.0);
}

TEST(MetricsRegistry, SnapshotCapturesOneRowOfAllMetrics) {
  MetricsRegistry reg;
  const auto c = reg.counter("ops");
  const auto g = reg.gauge("level");
  const auto t = reg.timer("ms");
  reg.add(c, 5.0);
  reg.set(g, 2.0);
  reg.observe(t, 8.0);
  reg.observe(t, 12.0);
  reg.snapshot(1.0);
  reg.add(c);
  reg.snapshot(2.0);
  ASSERT_EQ(reg.snapshots().size(), 2u);
  const auto& s1 = reg.snapshots()[0];
  EXPECT_DOUBLE_EQ(s1.t, 1.0);
  ASSERT_EQ(s1.values.size(), 3u);
  EXPECT_DOUBLE_EQ(s1.values[c], 5.0);
  EXPECT_DOUBLE_EQ(s1.values[g], 2.0);
  EXPECT_DOUBLE_EQ(s1.values[t], 10.0);  // cumulative mean, not count
  EXPECT_DOUBLE_EQ(reg.snapshots()[1].values[c], 6.0);
  reg.clear_snapshots();
  EXPECT_TRUE(reg.snapshots().empty());
}

TEST(MetricsRegistry, TimerWithNoObservationsSnapshotsZero) {
  MetricsRegistry reg;
  const auto t = reg.timer("ms");
  reg.snapshot(0.0);
  ASSERT_EQ(reg.snapshots().size(), 1u);
  EXPECT_DOUBLE_EQ(reg.snapshots()[0].values[t], 0.0);
}

}  // namespace
}  // namespace sa::sim

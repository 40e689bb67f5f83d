#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/rng.hpp"

namespace sa::sim {
namespace {

TEST(RunningStats, EmptyIsSane) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
}

TEST(RunningStats, MatchesClosedFormOnKnownData) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.14);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.14);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(1);
  RunningStats whole, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(2.0, 3.0);
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(5.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(TimeWeighted, ConstantSignalMeanIsItsValue) {
  TimeWeighted tw;
  tw.set(0.0, 4.0);
  EXPECT_DOUBLE_EQ(tw.mean(10.0), 4.0);
}

TEST(TimeWeighted, StepSignalIntegratesCorrectly) {
  TimeWeighted tw;
  tw.set(0.0, 0.0);
  tw.set(5.0, 10.0);  // 0 for 5s, then 10 for 5s
  EXPECT_DOUBLE_EQ(tw.mean(10.0), 5.0);
  EXPECT_DOUBLE_EQ(tw.current(), 10.0);
  EXPECT_DOUBLE_EQ(tw.min(), 0.0);
  EXPECT_DOUBLE_EQ(tw.max(), 10.0);
}

TEST(TimeWeighted, MultipleChanges) {
  TimeWeighted tw;
  tw.set(0.0, 2.0);
  tw.set(1.0, 4.0);
  tw.set(3.0, 0.0);
  // 2 over [0,1) + 4 over [1,3) + 0 over [3,4) = (2+8+0)/4
  EXPECT_DOUBLE_EQ(tw.mean(4.0), 2.5);
}

TEST(TimeWeighted, EmptyMeanIsZero) {
  TimeWeighted tw;
  EXPECT_DOUBLE_EQ(tw.mean(5.0), 0.0);
}

TEST(Histogram, CountsAndTotal) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(h.count(b), 1u);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(25.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
}

TEST(Histogram, MedianOfUniformIsCentre) {
  Histogram h(0.0, 1.0, 100);
  Rng rng(2);
  for (int i = 0; i < 50000; ++i) h.add(rng.uniform());
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.95), 0.95, 0.02);
  EXPECT_NEAR(h.quantile(0.05), 0.05, 0.02);
}

TEST(Histogram, QuantileOnEmptyIsZero) {
  Histogram h(0.0, 1.0, 10);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, QuantilesAreMonotone) {
  Histogram h(0.0, 100.0, 50);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) h.add(rng.exponential(20.0));
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

}  // namespace
}  // namespace sa::sim

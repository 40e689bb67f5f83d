#include "learn/estimators.hpp"

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace sa::learn {
namespace {

TEST(Ewma, FirstSampleIsExactThanksToBiasCorrection) {
  Ewma e(0.1);
  e.add(5.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(Ewma, EmptyValueIsZero) {
  Ewma e(0.3);
  EXPECT_DOUBLE_EQ(e.value(), 0.0);
  EXPECT_EQ(e.count(), 0u);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.2);
  for (int i = 0; i < 100; ++i) e.add(3.0);
  EXPECT_NEAR(e.value(), 3.0, 1e-9);
}

TEST(Ewma, TracksStepChange) {
  Ewma e(0.2);
  for (int i = 0; i < 50; ++i) e.add(0.0);
  for (int i = 0; i < 50; ++i) e.add(10.0);
  EXPECT_GT(e.value(), 9.9);
}

TEST(Ewma, HigherAlphaReactsFaster) {
  Ewma slow(0.05), fast(0.5);
  for (int i = 0; i < 20; ++i) {
    slow.add(0.0);
    fast.add(0.0);
  }
  slow.add(10.0);
  fast.add(10.0);
  EXPECT_GT(fast.value(), slow.value());
}

TEST(Ewma, ResetClears) {
  Ewma e(0.1);
  e.add(5.0);
  e.reset();
  EXPECT_DOUBLE_EQ(e.value(), 0.0);
  EXPECT_EQ(e.count(), 0u);
}

TEST(EwmaVar, ConstantStreamHasTinyVariance) {
  EwmaVar ev(0.1);
  for (int i = 0; i < 200; ++i) ev.add(4.0);
  EXPECT_NEAR(ev.mean(), 4.0, 1e-9);
  EXPECT_NEAR(ev.variance(), 0.0, 1e-9);
}

TEST(EwmaVar, NoisyStreamEstimatesSpread) {
  sim::Rng rng(1);
  EwmaVar ev(0.05);
  for (int i = 0; i < 5000; ++i) ev.add(rng.normal(10.0, 2.0));
  // A recency-weighted estimate never fully averages the noise away:
  // its sampling sd is ~sigma*sqrt(alpha/(2-alpha)); allow for that.
  EXPECT_NEAR(ev.mean(), 10.0, 1.0);
  EXPECT_NEAR(ev.stddev(), 2.0, 0.8);
}

}  // namespace
}  // namespace sa::learn

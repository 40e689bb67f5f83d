#include "learn/forecast.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/rng.hpp"

namespace sa::learn {
namespace {

TEST(NaiveForecaster, PredictsLastValue) {
  NaiveForecaster f;
  f.observe(3.0);
  f.observe(7.0);
  EXPECT_DOUBLE_EQ(f.forecast(), 7.0);
  EXPECT_DOUBLE_EQ(f.forecast(5), 7.0);
  EXPECT_EQ(f.count(), 2u);
}

TEST(SesForecaster, ConvergesToLevel) {
  SesForecaster f(0.3);
  for (int i = 0; i < 100; ++i) f.observe(6.0);
  EXPECT_NEAR(f.forecast(), 6.0, 1e-9);
}

TEST(SesForecaster, SmoothsNoise) {
  sim::Rng rng(1);
  SesForecaster f(0.1);
  for (int i = 0; i < 2000; ++i) f.observe(rng.normal(5.0, 1.0));
  EXPECT_NEAR(f.forecast(), 5.0, 0.5);
}

TEST(HoltForecaster, ExtrapolatesLinearTrendExactly) {
  HoltForecaster f(0.5, 0.5);
  for (int i = 0; i < 50; ++i) f.observe(2.0 * i);
  EXPECT_NEAR(f.forecast(1), 100.0, 1.0);   // next value would be 2*50
  EXPECT_NEAR(f.forecast(5), 108.0, 1.5);
}

TEST(HoltForecaster, BeatsNaiveOnTrend) {
  HoltForecaster holt;
  NaiveForecaster naive;
  double holt_err = 0.0, naive_err = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double x = 0.7 * i;
    if (i > 5) {
      holt_err += std::fabs(holt.forecast() - x);
      naive_err += std::fabs(naive.forecast() - x);
    }
    holt.observe(x);
    naive.observe(x);
  }
  EXPECT_LT(holt_err, naive_err * 0.5);
}

TEST(HoltWinters, LearnsSeasonality) {
  const std::size_t period = 8;
  HoltWintersForecaster f(period);
  auto signal = [&](int i) {
    return 10.0 + 5.0 * std::sin(2.0 * 3.14159265 * i / period);
  };
  for (int i = 0; i < 400; ++i) f.observe(signal(i));
  // After warm-up the one-step forecast should track the seasonal shape.
  double err = 0.0;
  for (int i = 400; i < 432; ++i) {
    err += std::fabs(f.forecast(1) - signal(i));
    f.observe(signal(i));
  }
  EXPECT_LT(err / 32.0, 0.5);
}

TEST(HoltWinters, BeatsHoltOnSeasonalData) {
  const std::size_t period = 12;
  HoltWintersForecaster hw(period);
  HoltForecaster holt;
  auto signal = [&](int i) {
    return 20.0 + 8.0 * std::sin(2.0 * 3.14159265 * i / period);
  };
  double hw_err = 0.0, holt_err = 0.0;
  for (int i = 0; i < 600; ++i) {
    const double x = signal(i);
    if (i > 100) {
      hw_err += std::fabs(hw.forecast(1) - x);
      holt_err += std::fabs(holt.forecast(1) - x);
    }
    hw.observe(x);
    holt.observe(x);
  }
  EXPECT_LT(hw_err, holt_err * 0.5);
}

// The ensemble scores each member the way a standalone scored forecaster
// would: here its naive member at horizon 1.
TEST(ScoredForecaster, TracksMeanAbsoluteError) {
  const ForecastEnsemble::Shape shape;
  std::vector<double> tail(shape.tail_size());
  ForecastEnsemble e;
  e.observe(0.0, shape, tail.data());  // nothing to score yet
  EXPECT_EQ(e.scored(shape), 0u);
  e.observe(1.0, shape, tail.data());  // naive predicted 0, error 1
  e.observe(3.0, shape, tail.data());  // predicted 1, error 2
  EXPECT_EQ(e.scored(shape), 2u);
  EXPECT_DOUBLE_EQ(e.mae(ForecastEnsemble::kNaive, shape), 1.5);
}

TEST(ScoredForecaster, PerfectForecasterHasZeroMae) {
  const ForecastEnsemble::Shape shape;
  std::vector<double> tail(shape.tail_size());
  ForecastEnsemble e;
  for (int i = 0; i < 10; ++i) e.observe(4.0, shape, tail.data());
  EXPECT_DOUBLE_EQ(e.mae(ForecastEnsemble::kNaive, shape), 0.0);
}

// The ensemble's members follow the standalone forecasters bit for bit,
// at every horizon, including Holt-Winters through its warm-up season.
TEST(ForecastEnsemble, MembersMatchTheStandaloneForecasters) {
  const ForecastEnsemble::Shape shape{2, 5};
  std::vector<double> tail(shape.tail_size());
  ForecastEnsemble e;
  NaiveForecaster naive;
  SesForecaster ses;
  HoltForecaster holt;
  HoltWintersForecaster hw(5);
  sim::Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    const double x = 10.0 + 3.0 * std::sin(i * 1.3) + rng.normal(0.0, 1.0);
    e.observe(x, shape, tail.data());
    naive.observe(x);
    ses.observe(x);
    holt.observe(x);
    hw.observe(x);
    for (const std::size_t h : {1u, 2u, 7u}) {
      EXPECT_EQ(e.forecast(ForecastEnsemble::kNaive, h, shape, tail.data()),
                naive.forecast(h));
      EXPECT_EQ(e.forecast(ForecastEnsemble::kSes, h, shape, tail.data()),
                ses.forecast(h));
      EXPECT_EQ(e.forecast(ForecastEnsemble::kHolt, h, shape, tail.data()),
                holt.forecast(h));
      EXPECT_EQ(
          e.forecast(ForecastEnsemble::kHoltWinters, h, shape, tail.data()),
          hw.forecast(h));
    }
  }
  EXPECT_EQ(e.count(), 60u);
}

TEST(Forecasters, NamesAreDistinct) {
  EXPECT_EQ(NaiveForecaster{}.name(), "naive");
  EXPECT_EQ(SesForecaster{}.name(), "ses");
  EXPECT_EQ(HoltForecaster{}.name(), "holt");
  EXPECT_EQ(HoltWintersForecaster{4}.name(), "holt-winters");
}

}  // namespace
}  // namespace sa::learn

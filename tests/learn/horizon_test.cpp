// Tests for horizon-aware forecaster scoring (a ForecastEnsemble whose
// shape has horizon > 1) — the mechanism that lets time-awareness rank
// models by the error that actually matters to a consumer acting with lag.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "learn/forecast.hpp"

namespace sa::learn {
namespace {

/// One ensemble with the outside state its shape asks for.
struct Race {
  explicit Race(std::size_t horizon, std::size_t period = 0)
      : shape{horizon, period}, tail(shape.tail_size()) {}
  void observe(double x) { ens.observe(x, shape, tail.data()); }
  [[nodiscard]] double mae(std::size_t member) const {
    return ens.mae(member, shape);
  }

  ForecastEnsemble::Shape shape;
  std::vector<double> tail;
  ForecastEnsemble ens;
};

TEST(ScoredForecasterHorizon, HorizonOneMatchesLegacySemantics) {
  Race r(1);
  r.observe(0.0);
  EXPECT_EQ(r.ens.scored(r.shape), 0u);
  r.observe(1.0);  // naive predicted 0 -> error 1
  r.observe(3.0);  // predicted 1 -> error 2
  EXPECT_EQ(r.ens.scored(r.shape), 2u);
  EXPECT_DOUBLE_EQ(r.mae(ForecastEnsemble::kNaive), 1.5);
}

TEST(ScoredForecasterHorizon, HorizonTwoScoresTwoStepError) {
  Race r(2);
  // Ramp 0,1,2,3...: naive's 2-step forecast made after seeing k is k,
  // compared against k+2 -> error always 2.
  for (int i = 0; i < 10; ++i) r.observe(i);
  EXPECT_EQ(r.ens.scored(r.shape), 8u);
  EXPECT_DOUBLE_EQ(r.mae(ForecastEnsemble::kNaive), 2.0);
}

TEST(ScoredForecasterHorizon, TrendModelWinsAtLongerHorizons) {
  Race r(3);
  for (int i = 0; i < 100; ++i) r.observe(2.0 * i);
  // Naive is always 3 steps behind a slope of 2.
  EXPECT_NEAR(r.mae(ForecastEnsemble::kNaive), 6.0, 0.5);
  EXPECT_LT(r.mae(ForecastEnsemble::kHolt), 1.0);
  EXPECT_EQ(r.ens.best(r.shape), ForecastEnsemble::kHolt);
}

TEST(ScoredForecasterHorizon, ZeroHorizonIsCoercedToOne) {
  const ForecastEnsemble::Shape shape{0, 0};
  EXPECT_EQ(shape.h(), 1u);
  Race zero(0), one(1);
  for (const double x : {0.0, 1.0, 3.0, 2.0}) {
    zero.observe(x);
    one.observe(x);
  }
  EXPECT_EQ(zero.ens.scored(zero.shape), one.ens.scored(one.shape));
  EXPECT_DOUBLE_EQ(zero.mae(ForecastEnsemble::kNaive),
                   one.mae(ForecastEnsemble::kNaive));
}

TEST(ScoredForecasterHorizon, SeasonalModelWinsOnCycles) {
  const std::size_t period = 10;
  Race r(2, period);
  auto signal = [&](int i) {
    return 50.0 + 20.0 * std::sin(2.0 * 3.14159265 * i / period);
  };
  for (int i = 0; i < 400; ++i) r.observe(signal(i));
  EXPECT_LT(r.mae(ForecastEnsemble::kHoltWinters),
            r.mae(ForecastEnsemble::kNaive) * 0.5);
}

}  // namespace
}  // namespace sa::learn

#include "core/time_awareness.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace sa::core {
namespace {

Observation obs(std::initializer_list<std::pair<const std::string, double>> m) {
  return Observation{m};
}

TEST(TimeAwareness, PublishesForecastKeys) {
  TimeAwareness ta;
  KnowledgeBase kb;
  for (int i = 0; i < 20; ++i) {
    ta.update(static_cast<double>(i), obs({{"load", 5.0}}), kb);
  }
  EXPECT_TRUE(kb.contains("forecast.load"));
  EXPECT_TRUE(kb.contains("forecast.load.mae"));
  EXPECT_TRUE(kb.contains("forecast.load.model"));
  EXPECT_NEAR(kb.number("forecast.load"), 5.0, 1e-9);
}

TEST(TimeAwareness, ConstantSignalForecastIsExact) {
  TimeAwareness ta;
  KnowledgeBase kb;
  for (int i = 0; i < 50; ++i) {
    ta.update(static_cast<double>(i), obs({{"x", 7.0}}), kb);
  }
  EXPECT_NEAR(ta.forecast("x"), 7.0, 1e-9);
  EXPECT_NEAR(kb.number("forecast.x.mae"), 0.0, 1e-9);
}

TEST(TimeAwareness, TrendSignalSelectsHolt) {
  TimeAwareness ta;
  KnowledgeBase kb;
  for (int i = 0; i < 120; ++i) {
    ta.update(static_cast<double>(i), obs({{"x", 2.0 * i}}), kb);
  }
  // "forecast.x.model" indexes the ensemble: naive, ses, holt[, holt-winters].
  EXPECT_DOUBLE_EQ(kb.number("forecast.x.model"), 2.0);  // holt
  EXPECT_NEAR(ta.forecast("x"), 240.0, 2.0);
}

TEST(TimeAwareness, SeasonalSignalSelectsHoltWintersWhenAvailable) {
  TimeAwareness::Params p;
  p.seasonal_period = 8;
  TimeAwareness ta(p);
  KnowledgeBase kb;
  for (int i = 0; i < 400; ++i) {
    const double x = 10.0 + 5.0 * std::sin(2.0 * 3.14159265 * i / 8.0);
    ta.update(static_cast<double>(i), obs({{"x", x}}), kb);
  }
  EXPECT_DOUBLE_EQ(kb.number("forecast.x.model"), 3.0);  // holt-winters
}

TEST(TimeAwareness, UnknownSignalQueriesAreSafe) {
  TimeAwareness ta;
  EXPECT_DOUBLE_EQ(ta.forecast("nothing"), 0.0);
}

TEST(TimeAwareness, ConfidenceDropsWithErrors) {
  TimeAwareness ta;
  KnowledgeBase kb;
  // Highly unpredictable alternating signal.
  for (int i = 0; i < 60; ++i) {
    ta.update(static_cast<double>(i),
              obs({{"x", i % 2 == 0 ? 0.0 : 100.0}}), kb);
  }
  EXPECT_LT(kb.confidence("forecast.x"), 0.2);
}

TEST(TimeAwareness, QualityHighForPredictableSignals) {
  TimeAwareness ta;
  KnowledgeBase kb;
  for (int i = 0; i < 50; ++i) {
    ta.update(static_cast<double>(i), obs({{"x", 3.0}}), kb);
  }
  EXPECT_GT(ta.quality(), 0.9);
}

TEST(TimeAwareness, ReconfigureForgetsEnsembles) {
  TimeAwareness ta;
  KnowledgeBase kb;
  for (int i = 0; i < 20; ++i) {
    ta.update(static_cast<double>(i), obs({{"x", 5.0}}), kb);
  }
  ta.reconfigure();
  EXPECT_DOUBLE_EQ(ta.forecast("x"), 0.0);
  EXPECT_DOUBLE_EQ(ta.quality(), 1.0);  // fresh ensembles: neutral
}

TEST(TimeAwareness, MultiStepForecastExtrapolates) {
  TimeAwareness ta;
  KnowledgeBase kb;
  for (int i = 0; i < 100; ++i) {
    ta.update(static_cast<double>(i), obs({{"x", 1.0 * i}}), kb);
  }
  const double h1 = ta.forecast("x", 1);
  const double h10 = ta.forecast("x", 10);
  EXPECT_GT(h10, h1 + 5.0);
}

TEST(TimeAwareness, LevelAndName) {
  TimeAwareness ta;
  EXPECT_EQ(ta.level(), Level::Time);
  EXPECT_EQ(ta.name(), "time");
}

}  // namespace
}  // namespace sa::core

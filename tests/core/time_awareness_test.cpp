#include "core/time_awareness.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/observations.hpp"

namespace sa::core {
namespace {

using test::support::Feed;

TEST(TimeAwareness, PublishesForecastKeys) {
  KnowledgeBase kb;
  Feed obs;
  TimeAwareness ta(kb);
  for (int i = 0; i < 20; ++i) {
    ta.update(static_cast<double>(i), obs({{"load", 5.0}}));
  }
  EXPECT_TRUE(kb.contains("forecast.load"));
  EXPECT_TRUE(kb.contains("forecast.load.mae"));
  EXPECT_TRUE(kb.contains("forecast.load.model"));
  EXPECT_NEAR(kb.number("forecast.load"), 5.0, 1e-9);
}

TEST(TimeAwareness, ConstantSignalForecastIsExact) {
  KnowledgeBase kb;
  Feed obs;
  TimeAwareness ta(kb);
  for (int i = 0; i < 50; ++i) {
    ta.update(static_cast<double>(i), obs({{"x", 7.0}}));
  }
  EXPECT_NEAR(ta.forecast("x"), 7.0, 1e-9);
  EXPECT_NEAR(kb.number("forecast.x.mae"), 0.0, 1e-9);
}

TEST(TimeAwareness, TrendSignalSelectsHolt) {
  KnowledgeBase kb;
  Feed obs;
  TimeAwareness ta(kb);
  for (int i = 0; i < 120; ++i) {
    ta.update(static_cast<double>(i), obs({{"x", 2.0 * i}}));
  }
  // "forecast.x.model" indexes the ensemble: naive, ses, holt[, holt-winters].
  EXPECT_DOUBLE_EQ(kb.number("forecast.x.model"), 2.0);  // holt
  EXPECT_NEAR(ta.forecast("x"), 240.0, 2.0);
}

TEST(TimeAwareness, SeasonalSignalSelectsHoltWintersWhenAvailable) {
  TimeAwareness::Params p;
  p.seasonal_period = 8;
  KnowledgeBase kb;
  Feed obs;
  TimeAwareness ta(kb, p);
  for (int i = 0; i < 400; ++i) {
    const double x = 10.0 + 5.0 * std::sin(2.0 * 3.14159265 * i / 8.0);
    ta.update(static_cast<double>(i), obs({{"x", x}}));
  }
  EXPECT_DOUBLE_EQ(kb.number("forecast.x.model"), 3.0);  // holt-winters
}

TEST(TimeAwareness, UnknownSignalQueriesAreSafe) {
  KnowledgeBase kb;
  TimeAwareness ta(kb);
  EXPECT_DOUBLE_EQ(ta.forecast("nothing"), 0.0);
}

TEST(TimeAwareness, ConfidenceDropsWithErrors) {
  KnowledgeBase kb;
  Feed obs;
  TimeAwareness ta(kb);
  // Highly unpredictable alternating signal.
  for (int i = 0; i < 60; ++i) {
    ta.update(static_cast<double>(i),
              obs({{"x", i % 2 == 0 ? 0.0 : 100.0}}));
  }
  EXPECT_LT(kb.confidence("forecast.x"), 0.2);
}

TEST(TimeAwareness, QualityHighForPredictableSignals) {
  KnowledgeBase kb;
  Feed obs;
  TimeAwareness ta(kb);
  for (int i = 0; i < 50; ++i) {
    ta.update(static_cast<double>(i), obs({{"x", 3.0}}));
  }
  EXPECT_GT(ta.quality(), 0.9);
}

TEST(TimeAwareness, QualitySumsInSignalNameOrder) {
  KnowledgeBase kb;
  Feed obs;
  TimeAwareness ta(kb);
  // Registered (first seen) as c, a, b: slot order is not name order.
  for (int i = 0; i < 10; ++i) {
    ta.update(i, obs({{"c", i % 2 ? 0.0 : 9.0},
                      {"a", 0.5 * i * i},
                      {"b", std::sin(0.7 * i)}}));
  }
  const double a = kb.confidence("forecast.a");
  const double b = kb.confidence("forecast.b");
  const double c = kb.confidence("forecast.c");
  ASSERT_NE(a + b + c, c + a + b);  // the order shows in the bits
  EXPECT_EQ(ta.quality(), (a + b + c) / 3.0);
}

TEST(TimeAwareness, ReconfigureForgetsEnsembles) {
  KnowledgeBase kb;
  Feed obs;
  TimeAwareness ta(kb);
  for (int i = 0; i < 20; ++i) {
    ta.update(static_cast<double>(i), obs({{"x", 5.0}}));
  }
  ta.reconfigure();
  EXPECT_DOUBLE_EQ(ta.forecast("x"), 0.0);
  EXPECT_DOUBLE_EQ(ta.quality(), 1.0);  // fresh ensembles: neutral
}

TEST(TimeAwareness, MultiStepForecastExtrapolates) {
  KnowledgeBase kb;
  Feed obs;
  TimeAwareness ta(kb);
  for (int i = 0; i < 100; ++i) {
    ta.update(static_cast<double>(i), obs({{"x", 1.0 * i}}));
  }
  const double h1 = ta.forecast("x", 1);
  const double h10 = ta.forecast("x", 10);
  EXPECT_GT(h10, h1 + 5.0);
}

TEST(TimeAwareness, LevelAndName) {
  KnowledgeBase kb;
  TimeAwareness ta(kb);
  EXPECT_EQ(ta.level(), Level::Time);
  EXPECT_EQ(ta.name(), "time");
}

}  // namespace
}  // namespace sa::core

#include "exp/aggregate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace {

using sa::exp::Aggregate;
using sa::exp::Metrics;

TEST(AggregateTest, SummaryMatchesHandComputedValues) {
  // Samples 2, 4, 6: mean 4, sample stddev 2, min 2, max 6.
  Aggregate agg;
  agg.add("m", 2.0);
  agg.add("m", 4.0);
  agg.add("m", 6.0);

  const auto s = agg.summary("m");
  EXPECT_EQ(s.n, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_NEAR(s.stddev, 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  // CI half-width = t(df=2) * stddev / sqrt(n) = 4.303 * 2 / sqrt(3).
  EXPECT_NEAR(s.ci95, 4.303 * 2.0 / std::sqrt(3.0), 1e-9);
}

TEST(AggregateTest, SingleSampleHasZeroSpread) {
  Aggregate agg;
  agg.add("m", 7.5);
  const auto s = agg.summary("m");
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);  // no df for a CI
}

TEST(AggregateTest, RejectsNaN) {
  Aggregate agg;
  EXPECT_THROW(agg.add("m", std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  // The bulk overload rejects too, naming the metric.
  const Metrics metrics{{"ok", 1.0},
                        {"bad", std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_THROW(agg.add(metrics), std::invalid_argument);
}

TEST(AggregateTest, InfinityIsAcceptedNaNIsNot) {
  // Inf can legitimately appear (e.g. a rate with a zero denominator) and
  // is representable in summaries; only NaN indicates a broken task.
  Aggregate agg;
  EXPECT_NO_THROW(agg.add("m", std::numeric_limits<double>::infinity()));
}

TEST(AggregateTest, NamesKeepFirstSeenOrder) {
  Aggregate agg;
  agg.add("zeta", 1.0);
  agg.add("alpha", 2.0);
  agg.add("zeta", 3.0);
  agg.add("mid", 4.0);
  ASSERT_EQ(agg.names().size(), 3u);
  EXPECT_EQ(agg.names()[0], "zeta");
  EXPECT_EQ(agg.names()[1], "alpha");
  EXPECT_EQ(agg.names()[2], "mid");
}

TEST(AggregateTest, UnknownMetricThrows) {
  Aggregate agg;
  agg.add("m", 1.0);
  EXPECT_EQ(agg.names(), std::vector<std::string>{"m"});
  EXPECT_THROW(static_cast<void>(agg.stats("nope")), std::out_of_range);
  EXPECT_THROW(static_cast<void>(agg.summary("nope")), std::out_of_range);
}

TEST(AggregateTest, TCriticalValues) {
  // Spot-check the exact table and the asymptote.
  EXPECT_DOUBLE_EQ(Aggregate::t_critical_95(0), 0.0);
  EXPECT_NEAR(Aggregate::t_critical_95(1), 12.706, 1e-9);
  EXPECT_NEAR(Aggregate::t_critical_95(2), 4.303, 1e-9);
  EXPECT_NEAR(Aggregate::t_critical_95(4), 2.776, 1e-9);
  EXPECT_NEAR(Aggregate::t_critical_95(30), 2.042, 1e-9);
  EXPECT_NEAR(Aggregate::t_critical_95(31), 1.960, 1e-9);
  EXPECT_NEAR(Aggregate::t_critical_95(10000), 1.960, 1e-9);
  // Monotone decreasing over the table.
  for (std::size_t df = 2; df <= 31; ++df) {
    EXPECT_LT(Aggregate::t_critical_95(df), Aggregate::t_critical_95(df - 1))
        << "df=" << df;
  }
}

TEST(AggregateTest, CiWidthShrinksWithMoreSamples) {
  // Same spread, more samples => tighter interval.
  Aggregate small, large;
  for (int i = 0; i < 4; ++i) small.add("m", i % 2 ? 1.0 : -1.0);
  for (int i = 0; i < 64; ++i) large.add("m", i % 2 ? 1.0 : -1.0);
  EXPECT_GT(small.summary("m").ci95, large.summary("m").ci95);
}

}  // namespace

// Property tests: statistics accumulators agree with naive reference
// computations on random data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace sa::sim {
namespace {

class StatsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<double> random_data(sim::Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (auto& x : v) {
    // Mixed scales and signs stress numerical stability.
    x = rng.normal(rng.uniform(-100.0, 100.0), rng.uniform(0.1, 50.0));
  }
  return v;
}

TEST_P(StatsPropertyTest, WelfordMatchesTwoPassReference) {
  sim::Rng rng(GetParam());
  const auto data = random_data(rng, 1 + rng.below(3000));
  RunningStats s;
  for (double x : data) s.add(x);

  const double n = static_cast<double>(data.size());
  const double mean = std::accumulate(data.begin(), data.end(), 0.0) / n;
  double m2 = 0.0;
  for (double x : data) m2 += (x - mean) * (x - mean);
  const double var = data.size() > 1 ? m2 / (n - 1.0) : 0.0;

  EXPECT_NEAR(s.mean(), mean, 1e-9 * (1.0 + std::fabs(mean)));
  EXPECT_NEAR(s.variance(), var, 1e-6 * (1.0 + var));
  EXPECT_DOUBLE_EQ(s.min(), *std::min_element(data.begin(), data.end()));
  EXPECT_DOUBLE_EQ(s.max(), *std::max_element(data.begin(), data.end()));
}

TEST_P(StatsPropertyTest, MergeIsOrderInsensitive) {
  sim::Rng rng(GetParam() ^ 0x9999);
  const auto data = random_data(rng, 500);
  // Split into three random parts, merge in two different orders.
  RunningStats a, b, c;
  for (std::size_t i = 0; i < data.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(data[i]);
  }
  RunningStats ab = a;
  ab.merge(b);
  ab.merge(c);
  RunningStats cb = c;
  cb.merge(b);
  cb.merge(a);
  EXPECT_NEAR(ab.mean(), cb.mean(), 1e-9);
  EXPECT_NEAR(ab.variance(), cb.variance(), 1e-6);
  EXPECT_EQ(ab.count(), cb.count());
}

TEST_P(StatsPropertyTest, HistogramQuantileWithinOneBinOfExact) {
  sim::Rng rng(GetParam() ^ 0x7777);
  const double lo = 0.0, hi = 100.0;
  const std::size_t bins = 200;
  Histogram h(lo, hi, bins);
  std::vector<double> data;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(lo, hi);
    data.push_back(x);
    h.add(x);
  }
  std::sort(data.begin(), data.end());
  const double bin_width = (hi - lo) / static_cast<double>(bins);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact =
        data[static_cast<std::size_t>(q * (data.size() - 1))];
    EXPECT_NEAR(h.quantile(q), exact, 2.0 * bin_width) << "q=" << q;
  }
}

TEST_P(StatsPropertyTest, TimeWeightedMatchesNumericIntegration) {
  sim::Rng rng(GetParam() ^ 0x5555);
  TimeWeighted tw;
  double t = 0.0, integral = 0.0, value = rng.uniform(-10.0, 10.0);
  tw.set(t, value);
  for (int i = 0; i < 300; ++i) {
    const double dt = rng.uniform(0.01, 2.0);
    integral += value * dt;
    t += dt;
    value = rng.uniform(-10.0, 10.0);
    tw.set(t, value);
  }
  const double tail = rng.uniform(0.01, 5.0);
  integral += value * tail;
  t += tail;
  EXPECT_NEAR(tw.mean(t), integral / t, 1e-9 * (1.0 + std::fabs(integral)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsPropertyTest,
                         ::testing::Values(31, 32, 33, 34, 35));

}  // namespace
}  // namespace sa::sim

#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace sa::sim {
namespace {

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsProduceDifferentStreams) {
  Rng a(1), b(2);
  std::size_t same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5u);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  // Forking derives the child from current state, so two parents that have
  // consumed identically produce identical children.
  Rng p1(7), p2(7);
  Rng c1 = p1.fork(3);
  Rng c2 = p2.fork(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1(), c2());
}

TEST(Rng, ForkWithDifferentTagsDiffer) {
  Rng p(7);
  Rng a = p.fork(1);
  Rng b = p.fork(2);  // note: p state unchanged by fork
  std::size_t same = 0;
  for (int i = 0; i < 200; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3u);
}

TEST(Rng, StringForkMatchesForSameTag) {
  Rng p1(9), p2(9);
  Rng a = p1.fork("camera");
  Rng b = p2.fork("camera");
  EXPECT_EQ(a(), b());
  Rng c = p1.fork("other");
  EXPECT_NE(a(), c());
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsNearHalf) {
  Rng r(4);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += r.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, BelowStaysInRangeAndHitsAllValues) {
  Rng r(6);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, ChanceZeroAndOneAreDegenerate) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceFrequencyMatchesProbability) {
  Rng r(10);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += r.exponential(2.5);
  EXPECT_NEAR(acc / n, 2.5, 0.05);
}

TEST(Rng, ExponentialIsNonNegative) {
  Rng r(12);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(r.exponential(1.0), 0.0);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(3.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, PoissonMeanMatches) {
  Rng r(14);
  double acc = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) acc += r.poisson(3.5);
  EXPECT_NEAR(acc / n, 3.5, 0.1);
}

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng r(15);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.poisson(0.0), 0);
}

TEST(Rng, ParetoRespectsScaleFloor) {
  Rng r(16);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(r.pareto(2.0, 1.5), 2.0);
}

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  // Adjacent inputs should differ in many bits.
  const auto x = mix64(100) ^ mix64(101);
  int bits = 0;
  for (int i = 0; i < 64; ++i) bits += (x >> i) & 1u;
  EXPECT_GT(bits, 10);
}

}  // namespace
}  // namespace sa::sim

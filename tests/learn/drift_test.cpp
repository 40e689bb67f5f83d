#include "learn/drift.hpp"

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace sa::learn {
namespace {

TEST(PageHinkley, SilentOnStationaryStream) {
  PageHinkley ph(0.1, 50.0);
  sim::Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_FALSE(ph.add(rng.normal(5.0, 1.0))) << "false positive at " << i;
  }
}

TEST(PageHinkley, DetectsUpwardMeanShift) {
  PageHinkley ph(0.1, 50.0);
  sim::Rng rng(2);
  for (int i = 0; i < 500; ++i) ASSERT_FALSE(ph.add(rng.normal(0.0, 1.0)));
  bool detected = false;
  for (int i = 0; i < 500 && !detected; ++i) {
    detected = ph.add(rng.normal(4.0, 1.0));
  }
  EXPECT_TRUE(detected);
}

TEST(PageHinkley, DetectsDownwardMeanShift) {
  PageHinkley ph(0.1, 50.0);
  sim::Rng rng(3);
  for (int i = 0; i < 500; ++i) ASSERT_FALSE(ph.add(rng.normal(10.0, 1.0)));
  bool detected = false;
  for (int i = 0; i < 500 && !detected; ++i) {
    detected = ph.add(rng.normal(6.0, 1.0));
  }
  EXPECT_TRUE(detected);
}

TEST(PageHinkley, SelfResetsAfterDetection) {
  PageHinkley ph(0.1, 30.0);
  sim::Rng rng(4);
  for (int i = 0; i < 300; ++i) ph.add(rng.normal(0.0, 1.0));
  bool first = false;
  for (int i = 0; i < 500 && !first; ++i) first = ph.add(rng.normal(5.0, 1.0));
  ASSERT_TRUE(first);
  // Immediately after detection the statistic restarted: the very next
  // sample cannot re-trigger.
  EXPECT_FALSE(ph.add(5.0));
}

TEST(PageHinkley, LargerLambdaIsMoreConservative) {
  sim::Rng rng(5);
  PageHinkley sensitive(0.01, 5.0), conservative(0.01, 200.0);
  int sensitive_at = -1, conservative_at = -1;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.normal(0.0, 1.0);
    sensitive.add(x);
    conservative.add(x);
  }
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.normal(2.0, 1.0);
    if (sensitive_at < 0 && sensitive.add(x)) sensitive_at = i;
    if (conservative_at < 0 && conservative.add(x)) conservative_at = i;
  }
  ASSERT_GE(sensitive_at, 0);
  ASSERT_GE(conservative_at, 0);
  EXPECT_LT(sensitive_at, conservative_at);
}

TEST(DriftDetectors, Names) {
  EXPECT_EQ(PageHinkley{}.name(), "page-hinkley");
}

}  // namespace
}  // namespace sa::learn

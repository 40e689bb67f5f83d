#include "core/explain.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace sa::core {
namespace {

Explanation sample_explanation() {
  Explanation e;
  e.t = 12.5;
  e.agent = "mapper";
  e.decision.action = "freq_up";
  e.decision.rationale = "utility 0.8 is the maximum";
  e.decision.considered = {{"freq_up", 0.8}, {"freq_down", 0.2}};
  e.evidence = {{"forecast.load", 3.4, 0.9}};
  e.goal_utility = 0.73;
  e.has_goal = true;
  return e;
}

TEST(Explanation, RenderMentionsAllParts) {
  const std::string s = sample_explanation().render();
  EXPECT_NE(s.find("t=12.5"), std::string::npos);
  EXPECT_NE(s.find("mapper"), std::string::npos);
  EXPECT_NE(s.find("freq_up"), std::string::npos);
  EXPECT_NE(s.find("because utility 0.8 is the maximum"), std::string::npos);
  EXPECT_NE(s.find("freq_down(0.200)"), std::string::npos);
  EXPECT_NE(s.find("forecast.load=3.400"), std::string::npos);
  EXPECT_NE(s.find("conf 0.900"), std::string::npos);
  EXPECT_NE(s.find("0.730"), std::string::npos);
}

TEST(Explanation, RenderOmitsAbsentParts) {
  Explanation e;
  e.t = 1.0;
  e.agent = "x";
  e.decision.action = "noop";
  const std::string s = e.render();
  EXPECT_EQ(s.find("Alternatives"), std::string::npos);
  EXPECT_EQ(s.find("Evidence"), std::string::npos);
  EXPECT_EQ(s.find("Goal utility"), std::string::npos);
}

TEST(Explainer, RecordsAndCounts) {
  Explainer ex;
  ex.record(sample_explanation());
  ex.record(sample_explanation());
  EXPECT_EQ(ex.size(), 2u);
  EXPECT_EQ(ex.decisions(), 2u);
  EXPECT_DOUBLE_EQ(ex.coverage(), 1.0);
  ASSERT_TRUE(ex.last().has_value());
  EXPECT_EQ(ex.last()->agent, "mapper");
  EXPECT_FALSE(ex.why_last().empty());
}

TEST(Explainer, DisabledStillCountsDecisions) {
  Explainer ex(false);
  ex.record(sample_explanation());
  EXPECT_EQ(ex.size(), 0u);
  EXPECT_EQ(ex.decisions(), 1u);
  EXPECT_DOUBLE_EQ(ex.coverage(), 0.0);
  EXPECT_FALSE(ex.last().has_value());
  EXPECT_TRUE(ex.why_last().empty());
}

TEST(Explainer, UnexplainedDecisionsLowerCoverage) {
  Explainer ex;
  ex.record(sample_explanation());
  ex.note_unexplained();
  EXPECT_DOUBLE_EQ(ex.coverage(), 0.5);
}

TEST(Explainer, EmptyCoverageIsZero) {
  Explainer ex;
  EXPECT_DOUBLE_EQ(ex.coverage(), 0.0);
}

TEST(Explainer, CapacityBoundsMemory) {
  Explainer ex;
  ex.set_capacity(10);
  for (int i = 0; i < 100; ++i) ex.record(sample_explanation());
  EXPECT_LE(ex.size(), 10u);
  EXPECT_EQ(ex.decisions(), 100u);
}

TEST(Explainer, ClearResets) {
  Explainer ex;
  ex.record(sample_explanation());
  ex.clear();
  EXPECT_EQ(ex.size(), 0u);
  EXPECT_EQ(ex.decisions(), 0u);
}

Explanation stamped(double t) {
  auto e = sample_explanation();
  e.t = t;
  return e;
}

TEST(Explainer, RingKeepsNewestInChronologicalOrder) {
  Explainer ex;
  ex.set_capacity(4);
  for (int i = 0; i < 10; ++i) ex.record(stamped(i));
  ASSERT_EQ(ex.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(ex.at(i).t, 6.0 + static_cast<double>(i));
  }
  ASSERT_TRUE(ex.last().has_value());
  EXPECT_DOUBLE_EQ(ex.last()->t, 9.0);
  const auto all = ex.all();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_DOUBLE_EQ(all.front().t, 6.0);
  EXPECT_DOUBLE_EQ(all.back().t, 9.0);
}

TEST(Explainer, ShrinkingCapacityDropsOldest) {
  Explainer ex;
  ex.set_capacity(8);
  for (int i = 0; i < 8; ++i) ex.record(stamped(i));
  ex.set_capacity(3);
  ASSERT_EQ(ex.size(), 3u);
  EXPECT_DOUBLE_EQ(ex.at(0).t, 5.0);
  EXPECT_DOUBLE_EQ(ex.at(2).t, 7.0);
  // The shrunk ring keeps rotating correctly.
  ex.record(stamped(8.0));
  ASSERT_EQ(ex.size(), 3u);
  EXPECT_DOUBLE_EQ(ex.at(0).t, 6.0);
  EXPECT_DOUBLE_EQ(ex.last()->t, 8.0);
}

TEST(Explainer, GrowingCapacityKeepsEverything) {
  Explainer ex;
  ex.set_capacity(2);
  ex.record(stamped(0.0));
  ex.record(stamped(1.0));
  ex.record(stamped(2.0));  // evicts t=0
  ex.set_capacity(4);
  ex.record(stamped(3.0));
  ASSERT_EQ(ex.size(), 3u);
  EXPECT_DOUBLE_EQ(ex.at(0).t, 1.0);
  EXPECT_DOUBLE_EQ(ex.last()->t, 3.0);
}

TEST(Explainer, CoverageCountsExplanationsEvictedFromTheRing) {
  Explainer ex;
  ex.set_capacity(8);
  for (int i = 0; i < 20; ++i) ex.record(stamped(i));
  EXPECT_EQ(ex.size(), 8u);
  EXPECT_DOUBLE_EQ(ex.coverage(), 1.0);
  ex.note_unexplained();
  EXPECT_DOUBLE_EQ(ex.coverage(), 20.0 / 21.0);
}

TEST(Explainer, AtRejectsOutOfRangeIndex) {
  Explainer ex;
  EXPECT_THROW((void)ex.at(0), std::out_of_range);
  ex.set_capacity(4);
  for (int i = 0; i < 3; ++i) ex.record(stamped(i));
  EXPECT_THROW((void)ex.at(ex.size()), std::out_of_range);
}

TEST(Explainer, LongRunMemoryStaysBoundedAtCapacity) {
  // The long-run contract behind E8: millions of decisions, ring-bounded
  // retention, full decision accounting, correct newest/oldest window.
  Explainer ex;
  ex.set_capacity(64);
  constexpr int kDecisions = 100000;
  for (int i = 0; i < kDecisions; ++i) ex.record(stamped(i));
  EXPECT_EQ(ex.size(), 64u);
  EXPECT_EQ(ex.decisions(), static_cast<std::size_t>(kDecisions));
  EXPECT_DOUBLE_EQ(ex.coverage(), 1.0);  // evicted entries were explained
  EXPECT_DOUBLE_EQ(ex.at(0).t, kDecisions - 64.0);
  EXPECT_DOUBLE_EQ(ex.last()->t, kDecisions - 1.0);
}

TEST(Explainer, ZeroCapacityRetainsNothingButCounts) {
  Explainer ex;
  ex.set_capacity(0);
  ex.record(sample_explanation());
  EXPECT_EQ(ex.size(), 0u);
  EXPECT_EQ(ex.decisions(), 1u);
  EXPECT_FALSE(ex.last().has_value());
}

TEST(Explainer, SnapshotReturnsNewestInChronologicalOrder) {
  Explainer ex;
  ex.set_capacity(8);
  for (int i = 0; i < 6; ++i) ex.record(stamped(i));
  const auto newest = ex.snapshot(3);
  ASSERT_EQ(newest.size(), 3u);
  EXPECT_DOUBLE_EQ(newest[0].t, 3.0);
  EXPECT_DOUBLE_EQ(newest[1].t, 4.0);
  EXPECT_DOUBLE_EQ(newest[2].t, 5.0);
}

TEST(Explainer, SnapshotClampsToRetainedSize) {
  Explainer ex;
  ex.set_capacity(4);
  ex.record(stamped(0.0));
  ex.record(stamped(1.0));
  EXPECT_EQ(ex.snapshot(100).size(), 2u);
  EXPECT_TRUE(ex.snapshot(0).empty());
  EXPECT_TRUE(Explainer().snapshot(5).empty());
}

TEST(Explainer, SnapshotIsCorrectAcrossRingWraparound) {
  Explainer ex;
  ex.set_capacity(4);
  for (int i = 0; i < 11; ++i) ex.record(stamped(i));  // head mid-ring
  const auto newest = ex.snapshot(2);
  ASSERT_EQ(newest.size(), 2u);
  EXPECT_DOUBLE_EQ(newest[0].t, 9.0);
  EXPECT_DOUBLE_EQ(newest[1].t, 10.0);
}

TEST(Explainer, SnapshotCopiesAreIndependentOfLaterRecords) {
  // The cross-thread discipline: a snapshot must stay valid while the ring
  // keeps rotating underneath it.
  Explainer ex;
  ex.set_capacity(2);
  ex.record(stamped(0.0));
  ex.record(stamped(1.0));
  const auto copy = ex.snapshot(2);
  for (int i = 2; i < 10; ++i) ex.record(stamped(i));  // overwrite every slot
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_DOUBLE_EQ(copy[0].t, 0.0);
  EXPECT_DOUBLE_EQ(copy[1].t, 1.0);
}

}  // namespace
}  // namespace sa::core

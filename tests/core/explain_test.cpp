#include "core/explain.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/agent.hpp"

namespace sa::core {
namespace {

constexpr std::size_t kLog = 4096;  ///< the explainer's log capacity

/// Writes a sample decision's explanation into the next entry, as the
/// agent does: every field set.
void write_sample(Explainer& ex, double t, KnowledgeBase::KeyId key = 0) {
  Explanation* e = ex.next();
  if (e == nullptr) return;
  e->t = t;
  e->action_index = 0;
  e->rationale = "utility 0.8 is the maximum";
  e->scores = {0.8, 0.2};
  e->evidence = {{key, 3.4, 0.9}};
  e->goal_utility = 0.73;
  e->has_goal = true;
  e->trace_id = 0;
  e->cited.clear();
  e->from_mode = nullptr;
  e->to_mode = nullptr;
  e->recovered = false;
}

/// An agent whose action table and knowledge base name the sample's ids.
struct Mapper {
  SelfAwareAgent agent{"mapper"};
  KnowledgeBase::KeyId load = agent.knowledge().key("forecast.load");
  Mapper() {
    agent.add_action("freq_up", [] {});
    agent.add_action("freq_down", [] {});
  }
};

TEST(Explanation, RenderMentionsAllParts) {
  Mapper m;
  Explainer ex;
  write_sample(ex, 12.5, m.load);
  EXPECT_EQ(m.agent.render(ex.at(0)),
            "[t=12.500] mapper chose 'freq_up' because utility 0.8 is the "
            "maximum. Alternatives considered: freq_up(0.800) "
            "freq_down(0.200). Evidence: forecast.load=3.400 [conf 0.900]. "
            "Goal utility at decision time: 0.730.");
}

TEST(Explanation, RenderOmitsAbsentParts) {
  Mapper m;
  Explanation e;
  e.t = 1.0;
  e.action_index = 1;
  const std::string s = m.agent.render(e);
  EXPECT_EQ(s, "[t=1.000] mapper chose 'freq_down'.");
  EXPECT_EQ(s.find("Alternatives"), std::string::npos);
  EXPECT_EQ(s.find("Evidence"), std::string::npos);
  EXPECT_EQ(s.find("Goal utility"), std::string::npos);
}

TEST(Explainer, RecordsAndCounts) {
  Explainer ex;
  write_sample(ex, 1.0);
  write_sample(ex, 2.0);
  EXPECT_EQ(ex.size(), 2u);
  EXPECT_EQ(ex.decisions(), 2u);
  EXPECT_DOUBLE_EQ(ex.coverage(), 1.0);
  EXPECT_DOUBLE_EQ(ex.at(1).t, 2.0);
}

TEST(Explainer, DisabledStillCountsDecisions) {
  Explainer ex;
  ex.set_enabled(false);
  EXPECT_EQ(ex.next(), nullptr);
  EXPECT_EQ(ex.size(), 0u);
  EXPECT_EQ(ex.decisions(), 1u);
  EXPECT_DOUBLE_EQ(ex.coverage(), 0.0);
}

TEST(Explainer, UnexplainedDecisionsLowerCoverage) {
  Explainer ex;
  write_sample(ex, 0.0);
  ex.note_unexplained();
  EXPECT_DOUBLE_EQ(ex.coverage(), 0.5);
}

TEST(Explainer, EmptyCoverageIsZero) {
  Explainer ex;
  EXPECT_DOUBLE_EQ(ex.coverage(), 0.0);
}

TEST(Explainer, CapacityBoundsMemory) {
  Explainer ex;
  for (std::size_t i = 0; i < kLog + 100; ++i) write_sample(ex, 0.0);
  EXPECT_EQ(ex.size(), kLog);
  EXPECT_EQ(ex.decisions(), kLog + 100);
}

TEST(Explainer, ClearResets) {
  Explainer ex;
  write_sample(ex, 0.0);
  ex.clear();
  EXPECT_EQ(ex.size(), 0u);
  EXPECT_EQ(ex.decisions(), 0u);
}

TEST(Explainer, RingKeepsNewestInChronologicalOrder) {
  Explainer ex;
  for (std::size_t i = 0; i < kLog + 6; ++i) {
    write_sample(ex, static_cast<double>(i));
  }
  ASSERT_EQ(ex.size(), kLog);
  for (std::size_t i = 0; i < kLog; ++i) {
    EXPECT_DOUBLE_EQ(ex.at(i).t, 6.0 + static_cast<double>(i));
  }
}

TEST(Explainer, RecycledEntryKeepsItsStorage) {
  // Once the log has wrapped, next() hands back the oldest entry with its
  // contents: a writer that assigns every field reuses its strings' and
  // vectors' storage instead of allocating.
  Explainer ex;
  write_sample(ex, 0.0);
  const char* rationale = ex.at(0).rationale.data();
  const double* scores = ex.at(0).scores.data();
  for (std::size_t i = 1; i < kLog; ++i) write_sample(ex, 0.0);
  Explanation* recycled = ex.next();
  ASSERT_NE(recycled, nullptr);
  EXPECT_EQ(recycled->rationale.data(), rationale);
  EXPECT_EQ(recycled->scores.data(), scores);
}

TEST(Explainer, CoverageCountsExplanationsEvictedFromTheRing) {
  Explainer ex;
  for (std::size_t i = 0; i < kLog + 12; ++i) write_sample(ex, 0.0);
  EXPECT_EQ(ex.size(), kLog);
  EXPECT_DOUBLE_EQ(ex.coverage(), 1.0);
  ex.note_unexplained();
  EXPECT_DOUBLE_EQ(ex.coverage(), (kLog + 12.0) / (kLog + 13.0));
}

TEST(Explainer, AtRejectsOutOfRangeIndex) {
  Explainer ex;
  EXPECT_THROW((void)ex.at(0), std::out_of_range);
  for (int i = 0; i < 3; ++i) write_sample(ex, 0.0);
  EXPECT_THROW((void)ex.at(ex.size()), std::out_of_range);
}

TEST(Explainer, LongRunMemoryStaysBoundedAtCapacity) {
  // The long-run contract behind E8: many decisions, ring-bounded
  // retention, full decision accounting, correct newest/oldest window.
  Explainer ex;
  constexpr int kDecisions = 100000;
  for (int i = 0; i < kDecisions; ++i) write_sample(ex, i);
  EXPECT_EQ(ex.size(), kLog);
  EXPECT_EQ(ex.decisions(), static_cast<std::size_t>(kDecisions));
  EXPECT_DOUBLE_EQ(ex.coverage(), 1.0);  // evicted entries were explained
  EXPECT_DOUBLE_EQ(ex.at(0).t, kDecisions - static_cast<double>(kLog));
  EXPECT_DOUBLE_EQ(ex.at(kLog - 1).t, kDecisions - 1.0);
}

}  // namespace
}  // namespace sa::core

#include "core/stimulus.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/rng.hpp"
#include "support/observations.hpp"

namespace sa::core {
namespace {

using test::support::Feed;

TEST(StimulusAwareness, MirrorsSignalsToKnowledgeBaseAsPublic) {
  KnowledgeBase kb;
  Feed obs;
  StimulusAwareness sa(kb);
  sa.update(1.0, obs({{"load", 5.0}}));
  const auto item = kb.latest(kb.find("load"));
  ASSERT_TRUE(item.has_value());
  EXPECT_DOUBLE_EQ(item->value, 5.0);
  EXPECT_EQ(item->scope, Scope::Public);
  EXPECT_EQ(item->source, "stimulus");
}

TEST(StimulusAwareness, LearnsBaseline) {
  KnowledgeBase kb;
  Feed obs;
  StimulusAwareness sa(kb);
  for (int i = 0; i < 50; ++i) {
    sa.update(static_cast<double>(i), obs({{"x", 10.0}}));
  }
  EXPECT_NEAR(kb.number(kb.find("stimulus.x.baseline")), 10.0, 1e-9);
}

TEST(StimulusAwareness, NoEventsDuringWarmup) {
  KnowledgeBase kb;
  Feed obs;
  StimulusAwareness sa(kb);
  // Wild values during warm-up should not fire events.
  for (std::size_t i = 0; i < StimulusAwareness::kMinSamples; ++i) {
    sa.update(static_cast<double>(i), obs({{"x", i % 2 ? 100.0 : -100.0}}));
    EXPECT_TRUE(sa.events().empty()) << "event during warm-up at " << i;
  }
}

TEST(StimulusAwareness, DetectsNovelStimulus) {
  sim::Rng rng(1);
  KnowledgeBase kb;
  Feed obs;
  StimulusAwareness sa(kb);
  for (int i = 0; i < 100; ++i) {
    sa.update(static_cast<double>(i), obs({{"x", rng.normal(5.0, 0.5)}}));
  }
  EXPECT_TRUE(sa.events().empty());
  sa.update(100.0, obs({{"x", 50.0}}));  // massive excursion
  ASSERT_EQ(sa.events().size(), 1u);
  EXPECT_EQ(sa.events()[0].signal, "x");
  EXPECT_GT(sa.events()[0].zscore, 3.0);
  EXPECT_NE(kb.find("stimulus.x.novel"), KnowledgeBase::kNoKey);
}

TEST(StimulusAwareness, NegativeExcursionsAlsoDetected) {
  sim::Rng rng(2);
  KnowledgeBase kb;
  Feed obs;
  StimulusAwareness sa(kb);
  for (int i = 0; i < 100; ++i) {
    sa.update(static_cast<double>(i), obs({{"x", rng.normal(5.0, 0.5)}}));
  }
  sa.update(100.0, obs({{"x", -40.0}}));
  ASSERT_EQ(sa.events().size(), 1u);
  EXPECT_LT(sa.events()[0].zscore, -3.0);
}

TEST(StimulusAwareness, EventsClearEachUpdate) {
  sim::Rng rng(3);
  KnowledgeBase kb;
  Feed obs;
  StimulusAwareness sa(kb);
  for (int i = 0; i < 100; ++i) {
    sa.update(static_cast<double>(i), obs({{"x", rng.normal(0.0, 1.0)}}));
  }
  sa.update(100.0, obs({{"x", 100.0}}));
  ASSERT_FALSE(sa.events().empty());
  sa.update(101.0, obs({{"x", 0.0}}));
  // The outlier inflated the variance; a normal reading is not novel.
  EXPECT_TRUE(sa.events().empty());
}

TEST(StimulusAwareness, TracksMultipleSignalsIndependently) {
  KnowledgeBase kb;
  Feed obs;
  StimulusAwareness sa(kb);
  for (int i = 0; i < 30; ++i) {
    sa.update(static_cast<double>(i), obs({{"a", 1.0}, {"b", 100.0}}));
  }
  EXPECT_NEAR(kb.number(kb.find("stimulus.a.baseline")), 1.0, 1e-9);
  EXPECT_NEAR(kb.number(kb.find("stimulus.b.baseline")), 100.0, 1e-9);
}

TEST(StimulusAwareness, QualityGrowsWithWarmSignals) {
  KnowledgeBase kb;
  Feed obs;
  StimulusAwareness sa(kb);
  EXPECT_DOUBLE_EQ(sa.quality(), 1.0);  // nothing observed: neutral
  for (int i = 0; i < 10; ++i) {
    sa.update(static_cast<double>(i), obs({{"a", 1.0}}));
  }
  EXPECT_DOUBLE_EQ(sa.quality(), 1.0);
  sa.update(11.0, obs({{"b", 1.0}}));  // brand-new cold signal
  EXPECT_DOUBLE_EQ(sa.quality(), 0.5);
}

TEST(StimulusAwareness, ReconfigureForgetsBaselines) {
  KnowledgeBase kb;
  Feed obs;
  StimulusAwareness sa(kb);
  for (int i = 0; i < 30; ++i) {
    sa.update(static_cast<double>(i), obs({{"x", 5.0}}));
  }
  sa.reconfigure();
  EXPECT_DOUBLE_EQ(sa.quality(), 1.0);  // fresh model: neutral again
  // The next reading starts a new baseline instead of joining the old one.
  sa.update(30.0, obs({{"x", 7.0}}));
  EXPECT_DOUBLE_EQ(kb.number(kb.find("stimulus.x.baseline")), 7.0);
}

TEST(StimulusAwareness, RefusesObservationsFromAnotherSignalTable) {
  KnowledgeBase kb;
  Feed obs, other;
  StimulusAwareness sa(kb);
  sa.update(0.0, obs({{"x", 1.0}}));
  sa.update(1.0, Observation{});  // nothing sampled: no table to check
  EXPECT_THROW(sa.update(2.0, other({{"x", 1.0}})), std::invalid_argument);
}

TEST(StimulusAwareness, LevelAndName) {
  KnowledgeBase kb;
  StimulusAwareness sa(kb);
  EXPECT_EQ(sa.level(), Level::Stimulus);
  EXPECT_EQ(sa.name(), "stimulus");
}

}  // namespace
}  // namespace sa::core

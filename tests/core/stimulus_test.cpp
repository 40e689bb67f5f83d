#include "core/stimulus.hpp"

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace sa::core {
namespace {

Observation obs(std::initializer_list<std::pair<const std::string, double>> m) {
  return Observation{m};
}

TEST(StimulusAwareness, MirrorsSignalsToKnowledgeBaseAsPublic) {
  StimulusAwareness sa;
  KnowledgeBase kb;
  sa.update(1.0, obs({{"load", 5.0}}), kb);
  const auto item = kb.latest("load");
  ASSERT_TRUE(item.has_value());
  EXPECT_DOUBLE_EQ(as_number(item->value), 5.0);
  EXPECT_EQ(item->scope, Scope::Public);
  EXPECT_EQ(item->source, "stimulus");
}

TEST(StimulusAwareness, LearnsBaseline) {
  StimulusAwareness sa;
  KnowledgeBase kb;
  for (int i = 0; i < 50; ++i) {
    sa.update(static_cast<double>(i), obs({{"x", 10.0}}), kb);
  }
  EXPECT_NEAR(kb.number("stimulus.x.baseline"), 10.0, 1e-9);
}

TEST(StimulusAwareness, NoEventsDuringWarmup) {
  StimulusAwareness::Params p;
  p.min_samples = 10;
  StimulusAwareness sa(p);
  KnowledgeBase kb;
  // Wild values during warm-up should not fire events.
  for (int i = 0; i < 9; ++i) {
    sa.update(static_cast<double>(i), obs({{"x", i % 2 ? 100.0 : -100.0}}),
              kb);
    EXPECT_TRUE(sa.events().empty()) << "event during warm-up at " << i;
  }
}

TEST(StimulusAwareness, DetectsNovelStimulus) {
  sim::Rng rng(1);
  StimulusAwareness sa;
  KnowledgeBase kb;
  for (int i = 0; i < 100; ++i) {
    sa.update(static_cast<double>(i), obs({{"x", rng.normal(5.0, 0.5)}}), kb);
  }
  EXPECT_TRUE(sa.events().empty());
  sa.update(100.0, obs({{"x", 50.0}}), kb);  // massive excursion
  ASSERT_EQ(sa.events().size(), 1u);
  EXPECT_EQ(sa.events()[0].signal, "x");
  EXPECT_GT(sa.events()[0].zscore, 3.0);
  EXPECT_TRUE(kb.contains("stimulus.x.novel"));
}

TEST(StimulusAwareness, NegativeExcursionsAlsoDetected) {
  sim::Rng rng(2);
  StimulusAwareness sa;
  KnowledgeBase kb;
  for (int i = 0; i < 100; ++i) {
    sa.update(static_cast<double>(i), obs({{"x", rng.normal(5.0, 0.5)}}), kb);
  }
  sa.update(100.0, obs({{"x", -40.0}}), kb);
  ASSERT_EQ(sa.events().size(), 1u);
  EXPECT_LT(sa.events()[0].zscore, -3.0);
}

TEST(StimulusAwareness, EventsClearEachUpdate) {
  sim::Rng rng(3);
  StimulusAwareness sa;
  KnowledgeBase kb;
  for (int i = 0; i < 100; ++i) {
    sa.update(static_cast<double>(i), obs({{"x", rng.normal(0.0, 1.0)}}), kb);
  }
  sa.update(100.0, obs({{"x", 100.0}}), kb);
  ASSERT_FALSE(sa.events().empty());
  sa.update(101.0, obs({{"x", 0.0}}), kb);
  // The outlier inflated the variance; a normal reading is not novel.
  EXPECT_TRUE(sa.events().empty());
}

TEST(StimulusAwareness, TracksMultipleSignalsIndependently) {
  StimulusAwareness sa;
  KnowledgeBase kb;
  for (int i = 0; i < 30; ++i) {
    sa.update(static_cast<double>(i), obs({{"a", 1.0}, {"b", 100.0}}), kb);
  }
  EXPECT_NEAR(kb.number("stimulus.a.baseline"), 1.0, 1e-9);
  EXPECT_NEAR(kb.number("stimulus.b.baseline"), 100.0, 1e-9);
}

TEST(StimulusAwareness, QualityGrowsWithWarmSignals) {
  StimulusAwareness::Params p;
  p.min_samples = 5;
  StimulusAwareness sa(p);
  KnowledgeBase kb;
  EXPECT_DOUBLE_EQ(sa.quality(), 1.0);  // nothing observed: neutral
  for (int i = 0; i < 10; ++i) {
    sa.update(static_cast<double>(i), obs({{"a", 1.0}}), kb);
  }
  EXPECT_DOUBLE_EQ(sa.quality(), 1.0);
  sa.update(11.0, obs({{"b", 1.0}}), kb);  // brand-new cold signal
  EXPECT_DOUBLE_EQ(sa.quality(), 0.5);
}

TEST(StimulusAwareness, ReconfigureForgetsBaselines) {
  StimulusAwareness sa;
  KnowledgeBase kb;
  for (int i = 0; i < 30; ++i) {
    sa.update(static_cast<double>(i), obs({{"x", 5.0}}), kb);
  }
  sa.reconfigure();
  EXPECT_DOUBLE_EQ(sa.quality(), 1.0);  // fresh model: neutral again
  // The next reading starts a new baseline instead of joining the old one.
  sa.update(30.0, obs({{"x", 7.0}}), kb);
  EXPECT_DOUBLE_EQ(kb.number("stimulus.x.baseline"), 7.0);
}

TEST(StimulusAwareness, LevelAndName) {
  StimulusAwareness sa;
  EXPECT_EQ(sa.level(), Level::Stimulus);
  EXPECT_EQ(sa.name(), "stimulus");
}

}  // namespace
}  // namespace sa::core

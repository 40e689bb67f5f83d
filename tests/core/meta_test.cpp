#include "core/meta.hpp"

#include <gtest/gtest.h>


#include "sim/rng.hpp"

namespace sa::core {
namespace {

/// Controllable process for exercising the meta level.
class FakeProcess final : public AwarenessProcess {
 public:
  explicit FakeProcess(std::string name) : name_(std::move(name)) {}
  [[nodiscard]] Level level() const override { return Level::Stimulus; }
  [[nodiscard]] std::string name() const override { return name_; }
  void update(double, const Observation&) override {}
  [[nodiscard]] double quality() const override { return quality_value; }
  void reconfigure() override { ++reconfigures; }

  double quality_value = 1.0;
  int reconfigures = 0;

 private:
  std::string name_;
};

TEST(MetaSelfAwareness, PublishesProcessQuality) {
  FakeProcess p("fake");
  KnowledgeBase kb;
  MetaSelfAwareness meta(kb);
  meta.watch(p);
  for (int i = 0; i < 10; ++i) meta.update(i, {});
  EXPECT_NEAR(kb.number(kb.find("meta.fake.quality")), 1.0, 1e-9);
}

TEST(MetaSelfAwareness, ReconfiguresFailingProcess) {
  FakeProcess p("weak");
  MetaSelfAwareness::Params prm;
  prm.grace_updates = 4;
  KnowledgeBase kb;
  MetaSelfAwareness meta(kb, prm);
  meta.watch(p);
  p.quality_value = 0.05;
  for (int i = 0; i < 40; ++i) meta.update(i, {});
  EXPECT_GE(p.reconfigures, 1);
  EXPECT_GE(meta.adaptations_fired(), 1u);
  EXPECT_NE(kb.find("meta.weak.reconfigured"), KnowledgeBase::kNoKey);
}

TEST(MetaSelfAwareness, HealthyProcessLeftAlone) {
  FakeProcess p("healthy");
  KnowledgeBase kb;
  MetaSelfAwareness meta(kb);
  meta.watch(p);
  for (int i = 0; i < 100; ++i) meta.update(i, {});
  EXPECT_EQ(p.reconfigures, 0);
  EXPECT_EQ(meta.adaptations_fired(), 0u);
}

TEST(MetaSelfAwareness, DetectsUtilityDriftAndFiresHooks) {
  MetaSelfAwareness::Params prm;
  prm.grace_updates = 8;
  prm.ph_lambda = 1.0;
  KnowledgeBase kb;
  MetaSelfAwareness meta(kb, prm);
  FakeProcess p("proc");
  meta.watch(p);
  int drift_hook = 0;
  meta.on_drift("reset-policy", [&] { ++drift_hook; });
  sim::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    kb.put_number(kb.key("goal.utility"), 0.9 + rng.uniform(-0.02, 0.02), i);
    meta.update(i, {});
  }
  EXPECT_EQ(meta.drift_detections(), 0u);
  for (int i = 200; i < 400; ++i) {
    kb.put_number(kb.key("goal.utility"), 0.2 + rng.uniform(-0.02, 0.02), i);
    meta.update(i, {});
  }
  EXPECT_GE(meta.drift_detections(), 1u);
  EXPECT_GE(drift_hook, 1);
  EXPECT_GE(p.reconfigures, 1);  // drift refreshes the watched processes
  EXPECT_NE(kb.find("meta.drift.detected"), KnowledgeBase::kNoKey);
}

TEST(MetaSelfAwareness, NoDriftCheckWithoutUtilityKey) {
  KnowledgeBase kb;
  MetaSelfAwareness meta(kb);
  for (int i = 0; i < 100; ++i) meta.update(i, {});
  EXPECT_EQ(meta.drift_detections(), 0u);
}

TEST(MetaSelfAwareness, PublishesCounters) {
  KnowledgeBase kb;
  MetaSelfAwareness meta(kb);
  meta.update(0.0, {});
  EXPECT_NE(kb.find("meta.drift.count"), KnowledgeBase::kNoKey);
  EXPECT_NE(kb.find("meta.adaptations"), KnowledgeBase::kNoKey);
}

TEST(MetaSelfAwareness, QualityAggregatesWatchedProcesses) {
  FakeProcess a("a"), b("b");
  a.quality_value = 1.0;
  b.quality_value = 0.0;
  MetaSelfAwareness::Params prm;
  prm.grace_updates = 1000;  // suppress interventions for this test
  KnowledgeBase kb;
  MetaSelfAwareness meta(kb, prm);
  meta.watch(a);
  meta.watch(b);
  for (int i = 0; i < 20; ++i) meta.update(i, {});
  EXPECT_NEAR(meta.quality(), 0.5, 0.05);
}

TEST(MetaSelfAwareness, QualitySumsInProcessNameOrder) {
  // Watched out of name order, the mean is the same bits as the sum taken
  // in name order.
  FakeProcess c("c"), a("a"), b("b");
  a.quality_value = 0.1;
  b.quality_value = 0.2;
  c.quality_value = 0.9;
  KnowledgeBase kb;
  MetaSelfAwareness meta(kb);
  meta.watch(c);
  meta.watch(a);
  meta.watch(b);
  meta.update(0.0, {});
  const auto smoothed = [](double x) {
    learn::Ewma q(MetaSelfAwareness::kQualityAlpha);
    q.add(x);
    return q.value();
  };
  const double by_name = smoothed(0.1) + smoothed(0.2) + smoothed(0.9);
  const double by_watch = smoothed(0.9) + smoothed(0.1) + smoothed(0.2);
  ASSERT_NE(by_name, by_watch);  // the order shows in the bits
  EXPECT_EQ(meta.quality(), by_name / 3.0);
}

TEST(MetaSelfAwareness, LevelAndName) {
  KnowledgeBase kb;
  MetaSelfAwareness meta(kb);
  EXPECT_EQ(meta.level(), Level::Meta);
  EXPECT_EQ(meta.name(), "meta");
}

}  // namespace
}  // namespace sa::core

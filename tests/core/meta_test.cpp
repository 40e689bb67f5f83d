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
  void update(double, const Observation&, KnowledgeBase&) override {}
  [[nodiscard]] double quality() const override { return quality_value; }
  void reconfigure() override { ++reconfigures; }

  double quality_value = 1.0;
  int reconfigures = 0;

 private:
  std::string name_;
};

TEST(MetaSelfAwareness, PublishesProcessQuality) {
  FakeProcess p("fake");
  MetaSelfAwareness meta;
  meta.watch(p);
  KnowledgeBase kb;
  for (int i = 0; i < 10; ++i) meta.update(i, {}, kb);
  EXPECT_NEAR(kb.number("meta.fake.quality"), 1.0, 1e-9);
}

TEST(MetaSelfAwareness, ReconfiguresFailingProcess) {
  FakeProcess p("weak");
  MetaSelfAwareness::Params prm;
  prm.grace_updates = 4;
  prm.quality_floor = 0.3;
  MetaSelfAwareness meta(prm);
  meta.watch(p);
  KnowledgeBase kb;
  p.quality_value = 0.05;
  for (int i = 0; i < 40; ++i) meta.update(i, {}, kb);
  EXPECT_GE(p.reconfigures, 1);
  EXPECT_GE(meta.adaptations_fired(), 1u);
  EXPECT_TRUE(kb.contains("meta.weak.reconfigured"));
}

TEST(MetaSelfAwareness, HealthyProcessLeftAlone) {
  FakeProcess p("healthy");
  MetaSelfAwareness meta;
  meta.watch(p);
  KnowledgeBase kb;
  for (int i = 0; i < 100; ++i) meta.update(i, {}, kb);
  EXPECT_EQ(p.reconfigures, 0);
  EXPECT_EQ(meta.adaptations_fired(), 0u);
}

TEST(MetaSelfAwareness, DetectsUtilityDriftAndFiresHooks) {
  MetaSelfAwareness::Params prm;
  prm.grace_updates = 8;
  prm.ph_lambda = 1.0;
  MetaSelfAwareness meta(prm);
  FakeProcess p("proc");
  meta.watch(p);
  int drift_hook = 0;
  meta.on_drift("reset-policy", [&] { ++drift_hook; });
  KnowledgeBase kb;
  sim::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    kb.put_number("goal.utility", 0.9 + rng.uniform(-0.02, 0.02), i);
    meta.update(i, {}, kb);
  }
  EXPECT_EQ(meta.drift_detections(), 0u);
  for (int i = 200; i < 400; ++i) {
    kb.put_number("goal.utility", 0.2 + rng.uniform(-0.02, 0.02), i);
    meta.update(i, {}, kb);
  }
  EXPECT_GE(meta.drift_detections(), 1u);
  EXPECT_GE(drift_hook, 1);
  EXPECT_GE(p.reconfigures, 1);  // drift refreshes the watched processes
  EXPECT_TRUE(kb.contains("meta.drift.detected"));
}

TEST(MetaSelfAwareness, NoDriftCheckWithoutUtilityKey) {
  MetaSelfAwareness meta;
  KnowledgeBase kb;
  for (int i = 0; i < 100; ++i) meta.update(i, {}, kb);
  EXPECT_EQ(meta.drift_detections(), 0u);
}

TEST(MetaSelfAwareness, PublishesCounters) {
  MetaSelfAwareness meta;
  KnowledgeBase kb;
  meta.update(0.0, {}, kb);
  EXPECT_TRUE(kb.contains("meta.drift.count"));
  EXPECT_TRUE(kb.contains("meta.adaptations"));
}

TEST(MetaSelfAwareness, QualityAggregatesWatchedProcesses) {
  FakeProcess a("a"), b("b");
  a.quality_value = 1.0;
  b.quality_value = 0.0;
  MetaSelfAwareness::Params prm;
  prm.grace_updates = 1000;  // suppress interventions for this test
  MetaSelfAwareness meta(prm);
  meta.watch(a);
  meta.watch(b);
  KnowledgeBase kb;
  for (int i = 0; i < 20; ++i) meta.update(i, {}, kb);
  EXPECT_NEAR(meta.quality(), 0.5, 0.05);
}

TEST(MetaSelfAwareness, LevelAndName) {
  MetaSelfAwareness meta;
  EXPECT_EQ(meta.level(), Level::Meta);
  EXPECT_EQ(meta.name(), "meta");
}

}  // namespace
}  // namespace sa::core

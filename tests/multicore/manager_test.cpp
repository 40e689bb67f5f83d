#include "multicore/manager.hpp"

#include <gtest/gtest.h>

#include "multicore/workload.hpp"
#include "sim/engine.hpp"
#include "sim/telemetry.hpp"

namespace sa::multicore {
namespace {

Manager::Params params_for(Manager::Variant v) {
  Manager::Params p;
  p.variant = v;
  p.epoch_s = 0.5;
  return p;
}

TEST(DefaultActions, CrossProductOfFreqAndMapping) {
  Platform p(PlatformConfig::big_little(2, 4), 1);
  const auto actions = default_actions(p);
  ASSERT_EQ(actions.size(), 12u);  // 4 freq levels x 3 mappings
  EXPECT_EQ(actions[0].freq_level, 0u);
  EXPECT_EQ(actions[11].freq_level, p.freq_levels() - 1);
  EXPECT_EQ(actions[0].mapping, Mapping::Balanced);
  EXPECT_EQ(actions[2].mapping, Mapping::PackLittle);
  EXPECT_EQ(actions[3].name, "f1/balanced");
  EXPECT_EQ(actions[10].name, "f3/pack-big");
}

class ManagerVariantTest
    : public ::testing::TestWithParam<Manager::Variant> {};

TEST_P(ManagerVariantTest, RunsEpochsAndAccumulatesStats) {
  Platform platform(PlatformConfig::big_little(2, 4), 3);
  auto workload = PhasedWorkload::standard();
  Manager mgr(platform, params_for(GetParam()));
  for (int i = 0; i < 20; ++i) {
    workload.apply(platform);
    const double u = mgr.run_epoch();
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
  EXPECT_EQ(mgr.utility().count(), 20u);
  EXPECT_GT(mgr.power().mean(), 0.0);
  EXPECT_GE(mgr.cap_violation_rate(), 0.0);
  EXPECT_LE(mgr.cap_violation_rate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ManagerVariantTest,
                         ::testing::Values(Manager::Variant::Static,
                                           Manager::Variant::Reactive,
                                           Manager::Variant::SelfAware),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case Manager::Variant::Static: return "static";
                             case Manager::Variant::Reactive:
                               return "reactive";
                             case Manager::Variant::SelfAware:
                               return "self_aware";
                           }
                           return "unknown";
                         });

TEST(Manager, StaticNeverChangesConfiguration) {
  Platform platform(PlatformConfig::big_little(2, 4), 4);
  auto p = params_for(Manager::Variant::Static);
  p.static_action = 3;  // mid frequency, balanced
  Manager mgr(platform, p);
  platform.set_workload(20.0, 0.2, 0.5);
  for (int i = 0; i < 10; ++i) mgr.run_epoch();
  EXPECT_EQ(platform.freq_level(0), 1u);
  EXPECT_EQ(platform.mapping(), Mapping::Balanced);
}

TEST(Manager, ReactiveRespondsToLatencyPressure) {
  Platform platform(PlatformConfig::big_little(2, 4), 5);
  Manager mgr(platform, params_for(Manager::Variant::Reactive));
  // Heavy load: p95 latency will exceed the 0.4 s target, triggering the
  // max-freq rule.
  platform.set_workload(50.0, 0.25, 1.0);
  for (int i = 0; i < 10; ++i) mgr.run_epoch();
  EXPECT_EQ(platform.freq_level(0), platform.freq_levels() - 1);
}

TEST(Manager, SelfAwareAgentHasConfiguredLevels) {
  Platform platform(PlatformConfig::big_little(2, 4), 6);
  auto p = params_for(Manager::Variant::SelfAware);
  p.levels = core::LevelSet{core::Level::Stimulus, core::Level::Goal};
  Manager mgr(platform, p);
  EXPECT_TRUE(mgr.agent().levels().has(core::Level::Goal));
  EXPECT_FALSE(mgr.agent().levels().has(core::Level::Meta));
}

TEST(Manager, UtilityPenalisesCapViolations) {
  Platform platform(PlatformConfig::big_little(2, 4), 7);
  auto p = params_for(Manager::Variant::Static);
  p.power_cap_w = 0.5;  // absurdly low cap: always violated
  p.static_action = 8;  // max frequency
  Manager mgr(platform, p);
  platform.set_workload(30.0, 0.3, 0.5);
  for (int i = 0; i < 5; ++i) mgr.run_epoch();
  EXPECT_DOUBLE_EQ(mgr.utility().mean(), 0.0);  // hard constraint zeroes it
  EXPECT_DOUBLE_EQ(mgr.cap_violation_rate(), 1.0);
}

TEST(Manager, BindReproducesRunEpochLoop) {
  // Manager::bind schedules run_epoch_for(period) at the control order; the
  // default period equals epoch_s, so the trajectory must match the
  // synchronous loop exactly.
  auto run = [](bool engine_driven) {
    Platform platform(PlatformConfig::big_little(2, 4), 13);
    auto p = params_for(Manager::Variant::SelfAware);
    p.seed = 13;
    Manager mgr(platform, p);
    platform.set_workload(20.0, 0.4, 0.5);
    if (engine_driven) {
      sim::Engine engine;
      mgr.bind(engine);
      engine.run_until(40 * p.epoch_s);
    } else {
      for (int i = 0; i < 40; ++i) mgr.run_epoch();
    }
    return mgr.utility().mean();
  };
  EXPECT_DOUBLE_EQ(run(true), run(false));
}

TEST(Manager, TelemetryCapturesAgentActivity) {
  sim::TelemetryBus bus;
  Platform platform(PlatformConfig::big_little(2, 4), 7);
  auto p = params_for(Manager::Variant::SelfAware);
  p.telemetry = &bus;
  Manager mgr(platform, p);
  platform.set_workload(20.0, 0.4, 0.5);
  for (int i = 0; i < 10; ++i) mgr.run_epoch();
  EXPECT_GE(bus.count(sim::TelemetryBus::kObservation), 10u);
  EXPECT_GE(bus.count(sim::TelemetryBus::kDecision), 10u);
}

TEST(Manager, SelfAwareBeatsStaticOnPhasedWorkload) {
  // The headline E1 comparison in miniature (short horizon, fixed seed):
  // the learner should manage the changing phases at least as well as the
  // design-time configuration.
  auto run = [](Manager::Variant v) {
    Platform platform(PlatformConfig::big_little(2, 4), 11);
    auto workload = PhasedWorkload::standard();
    auto p = params_for(v);
    p.seed = 11;
    Manager mgr(platform, p);
    for (int i = 0; i < 240; ++i) {
      workload.apply(platform);
      mgr.run_epoch();
    }
    return mgr.utility().mean();
  };
  EXPECT_GT(run(Manager::Variant::SelfAware),
            run(Manager::Variant::Static) - 0.02);
}

}  // namespace
}  // namespace sa::multicore

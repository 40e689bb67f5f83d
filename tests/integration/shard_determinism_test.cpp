// Shard-count invariance over a corpus of generated worlds (sa::shard's
// acceptance suite, `ctest -L shard`).
//
// Every corpus entry is one ScenarioSpec — E1-style (multicore only),
// E4-style (CPN only), camera-district scale-out, the mixed town, and the
// E15 city — run single-engine and as a ShardedWorld at several shard
// counts; the summaries must match bit for bit, with and without a
// standing fault section and with a control-journal replay scheduled on
// the coordinator. SA_SHARD_SOAK=1 widens the matrix (more seeds, more
// shard counts, the full-length city) for the nightly CI lane.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/journal.hpp"
#include "gen/scenario.hpp"
#include "gen/spec.hpp"
#include "shard/world.hpp"
#include "support/metamorphic.hpp"

namespace {

using namespace sa;
namespace support = test::support;

bool soak() {
  const char* v = std::getenv("SA_SHARD_SOAK");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::vector<std::size_t> counts() {
  return soak() ? std::vector<std::size_t>{1, 2, 3, 4, 5, 8}
                : std::vector<std::size_t>{1, 2, 4};
}

std::vector<std::uint64_t> seeds() {
  return soak() ? std::vector<std::uint64_t>{11, 12, 13, 14}
                : std::vector<std::uint64_t>{11, 12};
}

/// Schedules a recorded control stream on the coordinator engine — the
/// same replay path the harness uses for --control-journal.
void replay_journal(gen::Scenario& city) {
  std::vector<ckpt::JournalEntry> entries;
  const ckpt::Status st = ckpt::parse_journal_spec(
      "12 cmd=inject&kind=link-loss&unit=0&mag=1.5&dur=10; "
      "31 cmd=inject&kind=core-fail&unit=1&mag=1&dur=8",
      entries);
  if (!st.ok()) throw std::runtime_error("journal: " + st.to_string());
  ckpt::schedule_replay(city.engine(), entries, &city.injector());
}

TEST(ShardDeterminism, MulticoreOnlyWorld) {  // E1-style
  for (const std::uint64_t seed : seeds()) {
    EXPECT_TRUE(support::shard_count_invariant(
        "world:horizon=100;multicore:nodes=4", seed, counts()));
  }
}

TEST(ShardDeterminism, CpnOnlyWorld) {  // E4-style
  for (const std::uint64_t seed : seeds()) {
    EXPECT_TRUE(support::shard_count_invariant(
        "world:horizon=100;cpn:rows=4,cols=4,shortcuts=3,flows=6,grids=3",
        seed, counts()));
  }
}

TEST(ShardDeterminism, CameraDistrictScaleOut) {
  for (const std::uint64_t seed : seeds()) {
    EXPECT_TRUE(support::shard_count_invariant(
        "world:horizon=100;cameras:count=5,objects=6,clusters=1,districts=4",
        seed, counts()));
  }
}

TEST(ShardDeterminism, MixedTownUnderFaults) {
  for (const std::uint64_t seed : seeds()) {
    EXPECT_TRUE(support::shard_count_invariant(
        "world:horizon=80;multicore:nodes=2;"
        "cameras:count=6,objects=8,clusters=1,districts=2;"
        "cloud:nodes=8;cpn:rows=3,cols=3,shortcuts=2,flows=4,grids=2;faults",
        seed, counts()));
  }
}

TEST(ShardDeterminism, TownWithControlJournalReplay) {
  EXPECT_TRUE(support::shard_count_invariant(
      "world:horizon=80;multicore:nodes=2;"
      "cameras:count=6,objects=8,clusters=1;"
      "cloud:nodes=8;cpn:rows=3,cols=3,shortcuts=2;faults",
      21, counts(), replay_journal));
}

TEST(ShardDeterminism, SmartCityComposite) {  // E15
  // The full 600 s city is the soak lane's job; the quick lane runs a
  // shortened horizon with the identical topology and fault environment.
  gen::ScenarioSpec spec =
      gen::ScenarioSpec::parse(gen::ScenarioSpec::city_spec());
  if (!soak()) spec.world.horizon = 120.0;
  for (const std::uint64_t seed : seeds()) {
    EXPECT_TRUE(support::shard_count_invariant(
        spec.to_string(), seed,
        soak() ? counts() : std::vector<std::size_t>{1, 4}));
  }
}

}  // namespace

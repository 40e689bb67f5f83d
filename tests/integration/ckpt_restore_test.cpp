// Whole-world checkpoint/restore byte-equality (ctest -L ckpt).
//
// The tentpole acceptance property: a run checkpointed at time T and
// restored produces the byte-identical remaining trajectory. Full worlds
// restore by *replay* — rebuild from the same (spec, seed), re-apply the
// control journal, run_until(T) — and the WorldCheckpoint::verify() byte
// attestation is what proves the rebuilt world IS the checkpointed one:
// every component section (knowledge bases, runtime counters, injector,
// ladders, engine timeline) must re-export to the exact bytes the image
// holds, else kStateDivergence names the drifted section. Continuing both
// runs to the horizon then bit-compares the summaries (hexfloat).
//
// Covered worlds mirror the bench tiers: an E1-style multicore world, an
// E4-style packet network, and the E15 smart-city composite — the latter
// twice, once with an active fault plan plus a replayed control journal
// (the served-run-becomes-reproducible-offline path).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/journal.hpp"
#include "ckpt/state.hpp"
#include "gen/scenario.hpp"
#include "gen/spec.hpp"

namespace sa::ckpt {
namespace {

constexpr const char* kE1Spec = "world:horizon=120;multicore:nodes=2;faults";
constexpr const char* kE4Spec =
    "world:horizon=120;cpn:rows=3,cols=3,shortcuts=2;faults";
constexpr const char* kE15Spec =
    "world:horizon=80;multicore:nodes=1;"
    "cameras:count=6,objects=8,clusters=1;cloud:nodes=8;"
    "cpn:rows=3,cols=3,shortcuts=2;faults";

/// Bit-exact summary serialization: equality means the two worlds ran the
/// same trajectory down to the last ULP.
std::string hex_summary(const gen::Scenario& world) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& [key, value] : world.summary()) {
    os << key << '=' << value << ';';
  }
  return os.str();
}

void apply_journal(gen::Scenario& world,
                   const std::vector<JournalEntry>& entries) {
  if (entries.empty()) return;
  schedule_replay(world.engine(), entries, /*order=*/1000, &world.injector());
}

/// The acceptance drill: run A to T, checkpoint, run A to the horizon
/// (reference trajectory); rebuild B, replay to T, attest byte-equality
/// against the image, continue B, bit-compare the summaries.
void expect_restore_byte_equal(const std::string& spec_text,
                               std::uint64_t seed, double t_checkpoint,
                               const std::vector<JournalEntry>& journal = {}) {
  SCOPED_TRACE(spec_text);
  const auto spec = gen::ScenarioSpec::parse(spec_text);
  gen::Scenario::Options opts;
  opts.self_aware = true;

  gen::Scenario a(spec, seed, opts);
  apply_journal(a, journal);
  a.run_until(t_checkpoint);
  WorldCheckpoint wa;
  a.register_checkpoint(wa);
  WorldCheckpoint::Meta meta;
  meta.t = t_checkpoint;
  meta.seed = seed;
  meta.recipe = spec.to_string();
  meta.fault_plan = a.fault_plan().to_string();
  std::string image;
  ASSERT_TRUE(wa.save(meta, image).ok());
  a.run();
  const std::string reference = hex_summary(a);

  // Replay-restore: same (spec, seed, journal), run to T.
  gen::Scenario b(spec, seed, opts);
  apply_journal(b, journal);
  b.run_until(t_checkpoint);
  WorldCheckpoint wb;
  b.register_checkpoint(wb);
  Reader r;
  ASSERT_TRUE(Reader::parse(image, r).ok());
  WorldCheckpoint::Meta got;
  ASSERT_TRUE(WorldCheckpoint::read_meta(r, got).ok());
  EXPECT_EQ(got.t, t_checkpoint);
  EXPECT_EQ(got.seed, seed);
  EXPECT_EQ(got.recipe, meta.recipe);

  // The attestation: every component of B re-exports to the checkpoint's
  // exact bytes. This is what "restored at T" means here.
  const Status attest = wb.verify(r);
  ASSERT_TRUE(attest.ok()) << attest.to_string();

  // And the remaining trajectory is byte-identical.
  b.run();
  EXPECT_EQ(hex_summary(b), reference);
}

TEST(CkptRestore, E1MulticoreWorldRestoresByteIdentically) {
  expect_restore_byte_equal(kE1Spec, 41, 60.0);
}

TEST(CkptRestore, E4PacketNetworkRestoresByteIdentically) {
  expect_restore_byte_equal(kE4Spec, 42, 60.0);
}

TEST(CkptRestore, E15CityRestoresByteIdentically) {
  expect_restore_byte_equal(kE15Spec, 61, 40.0);
}

TEST(CkptRestore, E15CityWithJournalAndActiveFaultsRestores) {
  // A served run's perturbations: one operator injection before the
  // checkpoint, one after it — both must land in both worlds, and the
  // checkpoint must be taken while the fault plan has already fired.
  std::vector<JournalEntry> journal;
  ASSERT_TRUE(parse_journal_spec(
                  "25 cmd=inject&kind=link-loss&unit=0&mag=1.5&dur=10; "
                  "55 cmd=inject&kind=link-loss&unit=1&mag=2&dur=5",
                  journal)
                  .ok());
  expect_restore_byte_equal(kE15Spec, 62, 40.0, journal);
}

TEST(CkptRestore, StaleIdentityIsRefused) {
  const auto spec = gen::ScenarioSpec::parse(kE1Spec);
  gen::Scenario::Options opts;
  opts.self_aware = true;
  gen::Scenario a(spec, 7, opts);
  a.run_until(30.0);
  WorldCheckpoint wa;
  a.register_checkpoint(wa);
  WorldCheckpoint::Meta meta;
  meta.t = 30.0;
  meta.seed = 7;
  meta.recipe = spec.to_string();
  meta.fault_plan = a.fault_plan().to_string();
  std::string image;
  ASSERT_TRUE(wa.save(meta, image).ok());

  Reader r;
  ASSERT_TRUE(Reader::parse(image, r).ok());

  // A different seed (or recipe) is a shape mismatch before any component
  // sees a byte: a stale file can never silently resume a different run.
  WorldCheckpoint::Meta other = meta;
  other.seed = 8;
  EXPECT_EQ(wa.restore(r, &other).code, Errc::kShapeMismatch);
  other = meta;
  other.recipe = "world:horizon=999";
  EXPECT_EQ(wa.restore(r, &other).code, Errc::kShapeMismatch);

  // A torn/corrupted image is a typed parse error, not a bad restore.
  std::string corrupt = image;
  corrupt[corrupt.size() / 2] ^= 0x10;
  Reader bad;
  EXPECT_FALSE(Reader::parse(corrupt, bad).ok());
}

}  // namespace
}  // namespace sa::ckpt

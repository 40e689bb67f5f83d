// Checkpoint image pin (ctest -L ckpt).
//
// The knowledge bases, runtime counters, injector, ladders and engine
// timeline of the E15 city serialize to one WorldCheckpoint image. Storage
// changes behind those sections (how a KnowledgeBase lays out its
// histories, how it interns keys and provenance tags) must leave the image
// byte-identical: an image is the attestation a replay-restore is checked
// against, and bench/ckpt documents are compared across builds. This test
// pins each image's byte size and 64-bit FNV-1a for two seeds, early in
// the run and after the knowledge rings have wrapped, so a storage change
// that moves one byte fails here rather than in a hand-run `cmp`.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/journal.hpp"
#include "ckpt/state.hpp"
#include "core/agent.hpp"
#include "gen/scenario.hpp"
#include "gen/spec.hpp"

namespace sa::ckpt {
namespace {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string image_at(gen::Scenario& world, const gen::ScenarioSpec& spec,
                     std::uint64_t seed, double t) {
  WorldCheckpoint wc;
  world.register_checkpoint(wc);
  WorldCheckpoint::Meta meta;
  meta.t = t;
  meta.seed = seed;
  meta.recipe = spec.to_string();
  meta.fault_plan = world.fault_plan().to_string();
  std::string image;
  EXPECT_TRUE(wc.save(meta, image).ok());
  return image;
}

/// Oldest retained item time of every (agent, key) history.
using Oldest =
    std::map<std::pair<std::size_t, core::KnowledgeBase::KeyId>, double>;

Oldest oldest_items(gen::Scenario& world) {
  Oldest out;
  std::size_t ai = 0;
  for (core::SelfAwareAgent* a : world.agents()) {
    const core::KnowledgeBase& kb = a->knowledge();
    for (const core::KnowledgeBase::KeyId id : kb.ids()) {
      const auto hist = kb.history(id);
      if (!hist.empty()) out[{ai, id}] = hist.front().time;
    }
    ++ai;
  }
  return out;
}

/// True when some history is full at the late time and no longer holds
/// the item that was oldest at the early time: that ring has overwritten
/// slots in place.
bool some_ring_wrapped(gen::Scenario& world, const Oldest& early) {
  std::size_t ai = 0;
  for (core::SelfAwareAgent* a : world.agents()) {
    const core::KnowledgeBase& kb = a->knowledge();
    for (const core::KnowledgeBase::KeyId id : kb.ids()) {
      const auto hist = kb.history(id);
      const auto it = early.find({ai, id});
      if (it != early.end() && hist.size() == kb.history_limit() &&
          hist.front().time > it->second) {
        return true;
      }
    }
    ++ai;
  }
  return false;
}

struct Pin {
  double t;
  std::size_t bytes;
  std::uint64_t fnv;
};

void expect_pinned(std::uint64_t seed, const Pin& early, const Pin& late) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const auto spec = gen::ScenarioSpec::parse(
      std::string("world:horizon=1200;") + gen::ScenarioSpec::city_spec());
  gen::Scenario::Options opts;
  opts.self_aware = true;
  gen::Scenario world(spec, seed, opts);

  world.run_until(early.t);
  const std::string a = image_at(world, spec, seed, early.t);
  EXPECT_EQ(a.size(), early.bytes) << "T=" << early.t;
  EXPECT_EQ(fnv1a64(a), early.fnv) << "T=" << early.t;
  const Oldest oldest = oldest_items(world);

  world.run_until(late.t);
  const std::string b = image_at(world, spec, seed, late.t);
  EXPECT_EQ(b.size(), late.bytes) << "T=" << late.t;
  EXPECT_EQ(fnv1a64(b), late.fnv) << "T=" << late.t;
  EXPECT_TRUE(some_ring_wrapped(world, oldest))
      << "no knowledge ring wrapped by T=" << late.t
      << ": the overwrite path is not covered";
}

TEST(CkptImagePin, CitySeed61ImagesAreByteStable) {
  expect_pinned(61, {100.0, 753991, 13954001195313379844ull},
                {1200.0, 2273127, 12841530739774129337ull});
}

TEST(CkptImagePin, CitySeed62ImagesAreByteStable) {
  expect_pinned(62, {100.0, 472126, 7284363188505818677ull},
                {1200.0, 2313095, 5419301596055785368ull});
}

TEST(CkptImagePin, CitySeed61WithReplayedJournalImagesAreByteStable) {
  // The control journal of crash_recovery.sh, replayed into the city: at
  // T=25 the first operator fault is in force and its restore pending; by
  // T=100 both have onset and restored, and their records sit in the log.
  std::vector<JournalEntry> journal;
  ASSERT_TRUE(parse_journal_spec(
                  "20 cmd=inject&kind=link-loss&unit=0&mag=1.5&dur=10; "
                  "45 cmd=inject&kind=link-loss&unit=1&mag=2&dur=5",
                  journal)
                  .ok());
  const std::uint64_t seed = 61;
  const auto spec = gen::ScenarioSpec::parse(
      std::string("world:horizon=1200;") + gen::ScenarioSpec::city_spec());
  gen::Scenario::Options opts;
  opts.self_aware = true;
  gen::Scenario world(spec, seed, opts);
  schedule_replay(world.engine(), journal, &world.injector());
  // The operator faults land exactly on their journal times; planned
  // chains draw continuous times, so these four are the journal's.
  std::size_t journaled = 0;
  world.injector().subscribe([&](const fault::Injector::Record& rec,
                                 std::size_t) {
    if (rec.t == 20.0 || rec.t == 30.0 || rec.t == 45.0 || rec.t == 50.0) {
      ++journaled;
    }
  });

  const Pin pins[] = {{25.0, 279241, 13976792077681996487ull},
                      {100.0, 647838, 6222271401158323634ull}};
  for (const Pin& pin : pins) {
    world.run_until(pin.t);
    const std::string image = image_at(world, spec, seed, pin.t);
    EXPECT_EQ(image.size(), pin.bytes) << "T=" << pin.t;
    EXPECT_EQ(fnv1a64(image), pin.fnv) << "T=" << pin.t;
  }
  EXPECT_EQ(journaled, 4u);
}

}  // namespace
}  // namespace sa::ckpt

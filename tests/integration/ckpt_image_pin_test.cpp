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

#include "ckpt/format.hpp"
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
using Oldest = std::map<std::pair<std::size_t, std::string>, double>;

Oldest oldest_items(gen::Scenario& world) {
  Oldest out;
  std::size_t ai = 0;
  for (core::SelfAwareAgent* a : world.agents()) {
    const core::KnowledgeBase& kb = a->knowledge();
    for (const std::string& key : kb.keys()) {
      const auto hist = kb.history(key);
      if (!hist.empty()) out[{ai, key}] = hist.front().time;
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
    for (const std::string& key : kb.keys()) {
      const auto hist = kb.history(key);
      const auto it = early.find({ai, key});
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
  expect_pinned(61, {100.0, 944130, 5723694792320453012ull},
                {1200.0, 2844344, 15468860573628037361ull});
}

TEST(CkptImagePin, CitySeed62ImagesAreByteStable) {
  expect_pinned(62, {100.0, 587574, 4947966874201762094ull},
                {1200.0, 2892493, 4643024442318314310ull});
}

}  // namespace
}  // namespace sa::ckpt

// Harness checkpoint store round-trips (ctest -L ckpt).
//
// The CheckpointStore is what lets a SIGKILLed bench resume: grid shapes,
// completed cells with exact f64 metric bits, the control journal and the
// interrupted flag all survive a save/load cycle, resume refuses shape
// drift, and a corrupt primary image falls back to .prev.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/journal.hpp"
#include "exp/ckpt_store.hpp"
#include "exp/grid.hpp"
#include "exp/runner.hpp"

namespace sa::exp {
namespace {

TaskResult make_cell(std::size_t variant, std::uint64_t seed) {
  TaskResult r;
  r.variant = variant;
  r.seed = seed;
  r.metrics = {{"goal", 0.1 + 0.2},  // not exactly representable
               {"latency_p99", 17.25},
               {"nan_metric", std::nan("")}};
  r.note = "note-" + std::to_string(variant) + "-" + std::to_string(seed);
  r.wall_s = 1.5;  // persisted but excluded from determinism checks
  return r;
}

Grid small_grid() {
  Grid g;
  g.name = "e1.demo";
  g.variants = {"baseline", "self-aware"};
  g.seeds = {7, 8};
  return g;
}

TEST(CkptStore, SaveLoadRoundTripsExactBits) {
  const std::string path = ::testing::TempDir() + "/store_roundtrip.sackpt";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());

  CheckpointStore store("e1");
  const Grid g = small_grid();
  const std::size_t gi = store.add_grid(g.name, g.variants, g.seeds);
  EXPECT_EQ(gi, 0u);
  store.record(gi, make_cell(0, 7));
  store.record(gi, make_cell(1, 8));
  std::vector<ckpt::JournalEntry> journal(1);
  journal[0].t = 4.5;
  store.set_journal(journal);
  ASSERT_TRUE(store.save(path).ok());

  CheckpointStore back;
  std::string used;
  ASSERT_TRUE(back.load(path, &used).ok());
  EXPECT_EQ(used, path);
  EXPECT_EQ(back.experiment(), "e1");
  EXPECT_FALSE(back.interrupted());
  EXPECT_EQ(back.grids(), 1u);
  EXPECT_EQ(back.completed(), 2u);
  EXPECT_EQ(back.match(0, g), "");

  const TaskResult* cell = back.find(0, 0, 7);
  ASSERT_NE(cell, nullptr);
  ASSERT_EQ(cell->metrics.size(), 3u);
  EXPECT_EQ(cell->metrics[0].first, "goal");
  EXPECT_EQ(cell->metrics[0].second, 0.1 + 0.2);  // exact bits
  EXPECT_TRUE(std::isnan(cell->metrics[2].second));
  EXPECT_EQ(cell->note, "note-0-7");
  EXPECT_EQ(cell->wall_s, 1.5);
  EXPECT_EQ(back.find(0, 1, 7), nullptr);  // never recorded
  EXPECT_EQ(back.find(3, 0, 7), nullptr);  // no such grid

  const auto j = back.journal();
  ASSERT_EQ(j.size(), 1u);
  EXPECT_EQ(j[0].t, 4.5);
}

TEST(CkptStore, RecordReplacesSameCell) {
  CheckpointStore store("e1");
  const Grid g = small_grid();
  store.add_grid(g.name, g.variants, g.seeds);
  store.record(0, make_cell(0, 7));
  TaskResult again = make_cell(0, 7);
  again.note = "replacement";
  store.record(0, again);
  EXPECT_EQ(store.completed(), 1u);
  ASSERT_NE(store.find(0, 0, 7), nullptr);
  EXPECT_EQ(store.find(0, 0, 7)->note, "replacement");
}

TEST(CkptStore, MatchRefusesShapeDrift) {
  CheckpointStore store("e1");
  const Grid g = small_grid();
  store.add_grid(g.name, g.variants, g.seeds);

  EXPECT_EQ(store.match(0, g), "");
  // A grid the store never reached matches vacuously (interrupted early).
  EXPECT_EQ(store.match(5, g), "");

  Grid renamed = g;
  renamed.name = "e1.other";
  EXPECT_NE(store.match(0, renamed), "");

  Grid fewer_variants = g;
  fewer_variants.variants = {"baseline"};
  EXPECT_NE(store.match(0, fewer_variants), "");

  Grid other_seeds = g;
  other_seeds.seeds = {7, 9};
  EXPECT_NE(store.match(0, other_seeds), "");
}

TEST(CkptStore, GridResultsAreFullShapedWithInterruptedHoles) {
  CheckpointStore store("e1");
  const Grid g = small_grid();
  store.add_grid(g.name, g.variants, g.seeds);
  store.record(0, make_cell(1, 8));
  store.set_interrupted(true);
  EXPECT_TRUE(store.interrupted());

  const auto results = store.grid_results();
  ASSERT_EQ(results.size(), 1u);
  const GridResult& r = results[0];
  EXPECT_EQ(r.name, g.name);
  ASSERT_EQ(r.tasks.size(), 4u);  // 2 variants x 2 seeds, variant-major
  std::size_t holes = 0;
  for (const TaskResult& cell : r.tasks) {
    if (cell.variant == 1 && cell.seed == 8) {
      EXPECT_EQ(cell.error, "");
      EXPECT_EQ(cell.note, "note-1-8");
    } else {
      EXPECT_EQ(cell.error, "interrupted before completion");
      ++holes;
    }
  }
  EXPECT_EQ(holes, 3u);
}

TEST(CkptStore, InterruptedFlagAndFallbackSurvivePersistence) {
  const std::string path = ::testing::TempDir() + "/store_fallback.sackpt";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());

  CheckpointStore store("e4");
  const Grid g = small_grid();
  store.add_grid(g.name, g.variants, g.seeds);
  store.record(0, make_cell(0, 7));
  ASSERT_TRUE(store.save(path).ok());  // generation 1

  store.record(0, make_cell(0, 8));
  store.set_interrupted(true);
  ASSERT_TRUE(store.save(path).ok());  // generation 2 (g1 rotated to .prev)

  // Tear the primary mid-file: load must fall back to generation 1.
  {
    std::string data;
    ASSERT_TRUE(ckpt::slurp_file(path, data).ok());
    data.resize(data.size() / 2);
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
  }
  CheckpointStore back;
  std::string used, fallback_error;
  ASSERT_TRUE(back.load(path, &used, &fallback_error).ok());
  EXPECT_EQ(used, path + ".prev");
  EXPECT_FALSE(fallback_error.empty());
  EXPECT_EQ(back.completed(), 1u);
  EXPECT_FALSE(back.interrupted());  // generation 1 predates the interrupt

  // Missing entirely: a typed kIo, which the harness maps to fresh-start.
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  CheckpointStore none;
  EXPECT_EQ(none.load(path).code, ckpt::Errc::kIo);
}

}  // namespace
}  // namespace sa::exp

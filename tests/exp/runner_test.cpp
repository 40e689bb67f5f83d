#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/grid.hpp"
#include "exp/harness.hpp"

namespace {

using namespace sa::exp;

Grid toy_grid(std::size_t variants, std::size_t seeds) {
  Grid g;
  g.name = "toy";
  for (std::size_t v = 0; v < variants; ++v) {
    g.variants.push_back("v" + std::to_string(v));
  }
  for (std::size_t s = 0; s < seeds; ++s) {
    g.seeds.push_back(100 + s);
  }
  // A deterministic task whose output depends on every TaskContext field
  // plus a few draws from the cell's private stream.
  g.task = [](const TaskContext& ctx) -> TaskOutput {
    auto rng = ctx.rng();
    double acc = 0.0;
    for (int i = 0; i < 16; ++i) acc += rng.uniform(0.0, 1.0);
    return {{{"acc", acc},
             {"cell", static_cast<double>(ctx.variant * 1000 + ctx.seed)}}};
  };
  return g;
}

TEST(RunnerTest, EveryCellExecutesExactlyOnce) {
  constexpr std::size_t kVariants = 3, kSeeds = 5;
  std::vector<std::atomic<int>> hits(kVariants * kSeeds);
  Grid g = toy_grid(kVariants, kSeeds);
  auto inner = g.task;
  g.task = [&hits, inner, kSeeds](const TaskContext& ctx) {
    hits[ctx.variant * kSeeds + (ctx.seed - 100)].fetch_add(1);
    return inner(ctx);
  };

  const Runner runner(4);
  const auto res = runner.run("runner_test", g);
  ASSERT_EQ(res.tasks.size(), kVariants * kSeeds);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(res.errors(), 0u);
}

TEST(RunnerTest, ResultsAreVariantMajorWhateverTheScheduling) {
  const Runner runner(4);
  const auto res = runner.run("runner_test", toy_grid(4, 3));
  for (std::size_t v = 0; v < 4; ++v) {
    for (std::size_t s = 0; s < 3; ++s) {
      const auto& cell = res.at(v, s);
      EXPECT_EQ(cell.variant, v);
      EXPECT_EQ(cell.seed, 100 + s);
    }
  }
}

TEST(RunnerTest, SerialAndParallelAreBitwiseIdentical) {
  const Grid g = toy_grid(4, 6);
  const auto serial = Runner(1).run("runner_test", g);
  for (const unsigned jobs : {2u, 4u, 8u}) {
    const auto parallel = Runner(jobs).run("runner_test", g);
    ASSERT_EQ(parallel.tasks.size(), serial.tasks.size());
    for (std::size_t i = 0; i < serial.tasks.size(); ++i) {
      EXPECT_EQ(parallel.tasks[i].variant, serial.tasks[i].variant);
      EXPECT_EQ(parallel.tasks[i].seed, serial.tasks[i].seed);
      ASSERT_EQ(parallel.tasks[i].metrics.size(),
                serial.tasks[i].metrics.size());
      for (std::size_t m = 0; m < serial.tasks[i].metrics.size(); ++m) {
        EXPECT_EQ(parallel.tasks[i].metrics[m].first,
                  serial.tasks[i].metrics[m].first);
        // Bitwise: EQ on doubles, not NEAR.
        EXPECT_EQ(parallel.tasks[i].metrics[m].second,
                  serial.tasks[i].metrics[m].second)
            << "cell " << i << " metric " << m << " jobs " << jobs;
      }
    }
    // The timing-free JSON form is the canonical determinism witness.
    EXPECT_EQ(to_json(parallel).dump(), to_json(serial).dump());
  }
}

TEST(RunnerTest, ExceptionInOneTaskDoesNotLoseTheOthers) {
  Grid g = toy_grid(2, 4);
  auto inner = g.task;
  g.task = [inner](const TaskContext& ctx) -> TaskOutput {
    if (ctx.variant == 1 && ctx.seed == 102) {
      throw std::runtime_error("boom in cell (1, 102)");
    }
    return inner(ctx);
  };

  const auto res = Runner(4).run("runner_test", g);
  EXPECT_EQ(res.errors(), 1u);
  EXPECT_EQ(res.at(1, 2).error, "boom in cell (1, 102)");
  EXPECT_TRUE(res.at(1, 2).metrics.empty());
  // Every other cell completed normally.
  for (std::size_t v = 0; v < 2; ++v) {
    for (std::size_t s = 0; s < 4; ++s) {
      if (v == 1 && s == 2) continue;
      EXPECT_TRUE(res.at(v, s).error.empty());
      EXPECT_FALSE(res.at(v, s).metrics.empty());
    }
  }
  // Aggregation skips the errored cell instead of poisoning the mean.
  EXPECT_EQ(res.stats(1, "acc").count(), 3u);
  EXPECT_EQ(res.stats(0, "acc").count(), 4u);
}

TEST(RunnerTest, NonStdExceptionIsCaughtToo) {
  Grid g = toy_grid(1, 2);
  g.task = [](const TaskContext& ctx) -> TaskOutput {
    if (ctx.seed == 100) throw 42;  // NOLINT(hicpp-exception-baseclass)
    return {{{"m", 1.0}}};
  };
  const auto res = Runner(2).run("runner_test", g);
  EXPECT_EQ(res.errors(), 1u);
  EXPECT_EQ(res.at(0, 0).error, "unknown exception");
  EXPECT_TRUE(res.at(0, 1).error.empty());
}

TEST(RunnerTest, StreamsAreUniquePerCell) {
  // The RNG stream key must differ across variants and seeds (same
  // experiment), and across experiments for the same cell.
  EXPECT_NE(stream_of("e1", "a", 1), stream_of("e1", "a", 2));
  EXPECT_NE(stream_of("e1", "a", 1), stream_of("e1", "b", 1));
  EXPECT_NE(stream_of("e1", "a", 1), stream_of("e2", "a", 1));
}

TEST(RunnerTest, MeanAndSumAndNoteHelpers) {
  Grid g;
  g.name = "helpers";
  g.variants = {"only"};
  g.seeds = {1, 2, 3};
  g.task = [](const TaskContext& ctx) -> TaskOutput {
    TaskOutput out;
    out.metrics = {{"x", static_cast<double>(ctx.seed)}};
    if (ctx.seed == 2) out.note = "from seed 2";
    return out;
  };
  const auto res = Runner(1).run("runner_test", g);
  EXPECT_DOUBLE_EQ(res.mean(0, "x"), 2.0);
  EXPECT_DOUBLE_EQ(res.sum(0, "x"), 6.0);
  EXPECT_EQ(res.note(0), "from seed 2");
}

TEST(HarnessTest, ThrowingCellFailsTheRunAndIsListedInFailedCells) {
  const char* argv[] = {"bench", "--jobs", "1"};
  Harness h("harness_test", 3, argv);
  Grid g;
  g.name = "faulty";
  g.variants = {"ok", "boom"};
  g.seeds = {1, 2};
  g.task = [](const TaskContext& ctx) -> TaskOutput {
    if (ctx.variant == 1 && ctx.seed == 2) {
      throw std::runtime_error("simulated cell failure");
    }
    return {{{"x", 1.0}}};
  };
  (void)h.run(std::move(g));

  std::ostringstream os;
  EXPECT_NE(h.finish(os), 0);  // CI must see the failure in the exit code
  EXPECT_NE(os.str().find("simulated cell failure"), std::string::npos);

  const Json doc = h.document();
  ASSERT_TRUE(doc.contains("failed_cells"));
  ASSERT_TRUE(doc.at("failed_cells").is_array());
  EXPECT_EQ(doc.at("failed_cells").size(), 1u);
  const std::string dumped = doc.at("failed_cells").dump();
  EXPECT_NE(dumped.find("\"faulty\""), std::string::npos);
  EXPECT_NE(dumped.find("\"boom\""), std::string::npos);
  EXPECT_NE(dumped.find("simulated cell failure"), std::string::npos);
}

TEST(HarnessTest, GreenRunsOmitFailedCellsEntirely) {
  // Byte-stability: a passing document must not grow a new key.
  const char* argv[] = {"bench", "--jobs", "1"};
  Harness h("harness_test", 3, argv);
  Grid g;
  g.name = "green";
  g.variants = {"only"};
  g.seeds = {1};
  g.task = [](const TaskContext&) -> TaskOutput { return {{{"x", 1.0}}}; };
  (void)h.run(std::move(g));
  std::ostringstream os;
  EXPECT_EQ(h.finish(os), 0);
  EXPECT_FALSE(h.document().contains("failed_cells"));
}

TEST(HarnessTest, RunDependentFieldsLiveOnlyInMeasured) {
  // The BENCH document contract: meta, grids and failed_cells are
  // byte-identical across --jobs, and every timing key sits in measured.
  const auto document_at = [](const char* jobs) {
    const char* argv[] = {"bench", "--jobs", jobs};
    Harness h("harness_test", 3, argv);
    Grid g = toy_grid(3, 4);
    auto inner = g.task;
    g.task = [inner](const TaskContext& ctx) -> TaskOutput {
      if (ctx.variant == 2 && ctx.seed == 101) {
        throw std::runtime_error("contract cell failure");
      }
      return inner(ctx);
    };
    (void)h.run(std::move(g));
    (void)h.run(toy_grid(2, 2));
    std::ostringstream os;
    (void)h.finish(os);
    return h.document();
  };
  const Json serial = document_at("1");
  const Json parallel = document_at("3");

  for (const char* key : {"schema", "experiment", "meta", "grids",
                          "failed_cells"}) {
    ASSERT_TRUE(serial.contains(key)) << key;
    EXPECT_EQ(serial.at(key).dump(), parallel.at(key).dump()) << key;
  }
  EXPECT_EQ(serial.at("schema").dump(), "2");
  EXPECT_TRUE(serial.at("meta").contains("events_total"));

  for (const Json* doc : {&serial, &parallel}) {
    const Json& measured = doc->at("measured");
    for (const char* key : {"wall_clock_s", "events_per_sec", "peak_rss_mb",
                            "jobs", "grids"}) {
      EXPECT_TRUE(measured.contains(key)) << key;
    }
    EXPECT_FALSE(doc->at("meta").contains("jobs"));
    EXPECT_FALSE(doc->at("meta").contains("wall_clock_s"));
    const std::string grids = doc->at("grids").dump();
    EXPECT_EQ(grids.find("\"wall_s\""), std::string::npos);
    EXPECT_EQ(grids.find("\"jobs\""), std::string::npos);
    // One timing entry per grid.
    ASSERT_EQ(measured.at("grids").size(), 2u);
    const std::string timing = measured.at("grids").dump(-1);
    EXPECT_NE(timing.find("\"wall_s\""), std::string::npos);
    EXPECT_NE(timing.find("\"jobs\""), std::string::npos);
    EXPECT_NE(timing.find("\"cell_wall_s\""), std::string::npos);
  }
  EXPECT_EQ(serial.at("measured").at("jobs").dump(), "1");
  EXPECT_EQ(parallel.at("measured").at("jobs").dump(), "3");
}

TEST(HarnessTest, ShardEventTotalsAreArraysUnderMeasured) {
  const char* argv[] = {"bench", "--shards", "2"};
  Harness h("harness_test", 3, argv);
  (void)h.run(toy_grid(1, 2));
  h.note_shard_events({10, 20, 3});
  h.note_shard_events({1, 2});
  std::ostringstream os;
  EXPECT_EQ(h.finish(os), 0);
  const Json doc = h.document();
  EXPECT_FALSE(doc.at("meta").contains("shards"));
  const Json& measured = doc.at("measured");
  EXPECT_EQ(measured.at("shards").dump(), "2");
  EXPECT_EQ(measured.at("shard_events_total").dump(-1), "[11,22,3]");
  ASSERT_TRUE(measured.at("shard_events_per_sec").is_array());
  EXPECT_EQ(measured.at("shard_events_per_sec").size(), 3u);
}

TEST(HarnessTest, EveryCellGetsTheJournalOnlyTheServedCellGetsTheBridge) {
  // --control-journal is parsed once and handed to every cell as entries;
  // --serve hands the bridge to the one designated cell (last variant,
  // first seed, first grid) and a null bridge to every other cell.
  const char* argv[] = {
      "bench", "--jobs", "2", "--serve", "0", "--control-journal",
      "1.5 cmd=inject&kind=link-loss&unit=1; 3 cmd=inject&kind=core-fail"};
  Harness h("harness_test", 7, argv);
  struct Seen {
    std::size_t variant;
    std::uint64_t seed;
    bool bridge;
    std::vector<double> journal_t;
  };
  std::mutex mu;
  std::vector<Seen> seen;
  const auto record = [&](const TaskContext& ctx) -> TaskOutput {
    Seen s{ctx.variant, ctx.seed, ctx.bridge != nullptr, {}};
    for (const auto& e : ctx.control_journal) s.journal_t.push_back(e.t);
    const std::scoped_lock lk(mu);
    seen.push_back(std::move(s));
    return {{{"x", 1.0}}};
  };
  Grid first = toy_grid(3, 2);
  first.task = record;
  Grid second = toy_grid(1, 1);
  second.task = record;
  (void)h.run(std::move(first));
  (void)h.run(std::move(second));
  std::ostringstream os;
  EXPECT_EQ(h.finish(os), 0);

  ASSERT_EQ(seen.size(), 7u);
  std::size_t served = 0;
  for (const Seen& s : seen) {
    EXPECT_EQ(s.journal_t, (std::vector<double>{1.5, 3.0}));
    if (!s.bridge) continue;
    ++served;
    EXPECT_EQ(s.variant, 2u);
    EXPECT_EQ(s.seed, 100u);
  }
  EXPECT_EQ(served, 1u);
}

TEST(RunnerTest, ZeroJobsMeansHardwareConcurrency) {
  const Runner runner(0);
  EXPECT_GE(runner.jobs(), 1u);
}

TEST(RunnerTest, MoreJobsThanCellsIsFine) {
  const auto res = Runner(16).run("runner_test", toy_grid(1, 2));
  EXPECT_EQ(res.tasks.size(), 2u);
  EXPECT_EQ(res.errors(), 0u);
}

}  // namespace

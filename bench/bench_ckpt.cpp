// Checkpoint/restore overhead (sa::ckpt).
//
// Pins the cost of the checkpoint machinery against the E15 smart-city
// composite at mid-run, the worst case the harness actually takes
// snapshots of: serializing every component section into a sealed image
// (save), the atomic durable write with fsync + .prev rotation
// (save_file), parsing + byte-attesting a rebuilt world against the
// image (parse_verify), and the run-time overhead of replaying a
// control journal into the trajectory (journal entries are engine
// events; the interesting number is how close the overhead is to zero).
//
// The timings are wall-clock derived, so each cell reports them as
// TaskOutput::measured, which the document keeps under `measured` and
// bench_diff skips; image_kb and journal_entries are exact metrics, so two
// runs' documents compare equal. `--json BENCH_ckpt.json` publishes the
// numbers for EXPERIMENTS.md.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/journal.hpp"
#include "ckpt/state.hpp"
#include "exp/harness.hpp"
#include "gen/scenario.hpp"
#include "gen/spec.hpp"
#include "sim/report.hpp"
#include "sim/stats.hpp"

namespace {

using namespace sa;
using Clock = std::chrono::steady_clock;

const std::vector<std::uint64_t> kSeeds{61, 62, 63};
constexpr double kCheckpointT = 40.0;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// An 8-entry control stream spread over the run, the journal-replay
/// worst case the crash-recovery lane exercises.
std::vector<ckpt::JournalEntry> demo_journal() {
  std::vector<ckpt::JournalEntry> entries;
  for (int i = 0; i < 8; ++i) {
    ckpt::JournalEntry e;
    e.t = 8.0 + 8.0 * i;
    e.cmd.fault_kind = fault::FaultKind::LinkLoss;
    e.cmd.unit = static_cast<std::size_t>(i % 4);
    e.cmd.magnitude = 1.5;
    e.cmd.duration = 4.0;
    entries.push_back(e);
  }
  return entries;
}

exp::TaskOutput run_costs(const gen::ScenarioSpec& spec,
                          const exp::TaskContext& ctx) {
  gen::Scenario::Options opts;
  opts.self_aware = true;

  // A world at mid-run: the state a supervisor snapshot actually sees.
  gen::Scenario world(spec, ctx.seed, opts);
  world.run_until(kCheckpointT);
  ckpt::WorldCheckpoint wc;
  world.register_checkpoint(wc);
  ckpt::WorldCheckpoint::Meta meta;
  meta.t = kCheckpointT;
  meta.seed = ctx.seed;
  meta.recipe = spec.to_string();
  meta.fault_plan = world.fault_plan().to_string();

  // save: serialize all component sections into a sealed image.
  constexpr int kSaveIters = 50;
  std::string image;
  auto t0 = Clock::now();
  for (int i = 0; i < kSaveIters; ++i) {
    image.clear();
    if (!wc.save(meta, image).ok()) throw std::runtime_error("save failed");
  }
  const double save_ms = ms_since(t0) / kSaveIters;

  // save_file: the durable path (tmp + fsync + rotate + rename).
  const std::string path =
      "BENCH_ckpt_probe_" + std::to_string(ctx.seed) + ".sackpt";
  constexpr int kFileIters = 10;
  t0 = Clock::now();
  for (int i = 0; i < kFileIters; ++i) {
    if (!wc.save_file(meta, path).ok())
      throw std::runtime_error("save_file failed");
  }
  const double save_file_ms = ms_since(t0) / kFileIters;
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());

  // parse + verify: the restore-side attestation against a rebuilt world.
  gen::Scenario rebuilt(spec, ctx.seed, opts);
  rebuilt.run_until(kCheckpointT);
  ckpt::WorldCheckpoint wr;
  rebuilt.register_checkpoint(wr);
  constexpr int kVerifyIters = 50;
  t0 = Clock::now();
  for (int i = 0; i < kVerifyIters; ++i) {
    ckpt::Reader r;
    if (!ckpt::Reader::parse(image, r).ok() || !wr.verify(r).ok())
      throw std::runtime_error("verify failed");
  }
  const double verify_ms = ms_since(t0) / kVerifyIters;

  // Journal replay overhead: full run with vs without a control stream.
  const auto journal = demo_journal();
  t0 = Clock::now();
  {
    gen::Scenario plain(spec, ctx.seed, opts);
    plain.run();
  }
  const double plain_ms = ms_since(t0);
  t0 = Clock::now();
  {
    gen::Scenario replayed(spec, ctx.seed, opts);
    ckpt::schedule_replay(replayed.engine(), journal, &replayed.injector());
    replayed.run();
  }
  const double replay_ms = ms_since(t0);

  exp::TaskOutput out;
  out.metrics.emplace_back("image_kb",
                           static_cast<double>(image.size()) / 1024.0);
  out.metrics.emplace_back("journal_entries",
                           static_cast<double>(journal.size()));
  exp::Metrics& m = out.measured;
  m.emplace_back("save_ms", save_ms);
  m.emplace_back("save_file_ms", save_file_ms);
  m.emplace_back("parse_verify_ms", verify_ms);
  m.emplace_back("run_plain_ms", plain_ms);
  m.emplace_back("run_replay_ms", replay_ms);
  m.emplace_back("replay_overhead_pct",
                 plain_ms > 0.0 ? 100.0 * (replay_ms - plain_ms) / plain_ms
                                : 0.0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h("ckpt", argc, argv);

  gen::ScenarioSpec spec;
  try {
    spec = gen::ScenarioSpec::parse(h.options().scenario.empty()
                                        ? gen::ScenarioSpec::city_spec()
                                        : h.options().scenario);
  } catch (const std::exception& e) {
    std::cerr << "bench_ckpt: " << e.what() << "\n";
    return 2;
  }

  std::cout << "ckpt: checkpoint/restore overhead on the smart-city "
               "composite at t=" << kCheckpointT << ".\nScenario: "
            << spec.to_string() << "\n\n";

  exp::Grid g;
  g.name = "ckpt.cost";
  g.variants = {"city"};
  g.seeds = kSeeds;
  g.task = [&spec](const exp::TaskContext& ctx) {
    return run_costs(spec, ctx);
  };
  const auto r = h.run(std::move(g));

  sim::Table t("CKPT  save/verify cost and journal-replay overhead",
               {"world", "save_ms", "file_ms", "verify_ms", "image_kb",
                "overhead_%"});
  // Mean of a timing over the cells that measured it (a cell restored on
  // --resume measured nothing).
  const auto timing = [&r](std::string_view name) {
    sim::RunningStats s;
    for (const exp::TaskResult& c : r.tasks) {
      for (const auto& [n, v] : c.measured) {
        if (n == name) s.add(v);
      }
    }
    return s.mean();
  };
  t.add_row({r.variants[0], timing("save_ms"), timing("save_file_ms"),
             timing("parse_verify_ms"), r.mean(0, "image_kb"),
             timing("replay_overhead_pct")});
  t.print(std::cout);
  return h.finish();
}

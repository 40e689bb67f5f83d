// Per-binary experiment harness: flags + parallel runner + emitters.
//
// Every bench_e* binary constructs one Harness, runs its grid(s) through
// it, prints its sim::Table reports exactly as before, and returns
// harness.finish(). The harness contributes the shared behaviour: the
// --jobs/--seeds/--json flags, the thread pool, the per-grid aggregation
// recorded for JSON, the BENCH_<exp>.json document (metrics, per-seed
// raws, git rev, and a separate `measured` block for wall-clock, jobs,
// RSS and shard rates) and the error/timing footer.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/journal.hpp"
#include "exp/args.hpp"
#include "exp/ckpt_store.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"

namespace sa::exp {

/// Serialises one grid's results (variants, seeds, per-seed raw metrics,
/// notes, errors, per-variant summaries). Carries no timing: the output is
/// a pure function of the grid and its seeds, so it is byte-identical for
/// every --jobs/--shards/resume/serve mode. Harness::document() records
/// the grid's wall times and jobs under its `measured` block instead.
[[nodiscard]] Json to_json(const GridResult& result);

/// Best-effort current git revision: $SA_GIT_REV, else `git rev-parse
/// --short HEAD`, else "unknown". Never throws.
[[nodiscard]] std::string git_rev();

/// Peak resident set size of this process in MiB (0 where unsupported).
[[nodiscard]] double peak_rss_mb();

class Harness {
 public:
  /// Parses argv; on --help prints usage and exits 0, on a bad flag
  /// prints the error and usage and exits 2.
  Harness(std::string experiment, int argc, const char* const* argv);
  ~Harness();

  [[nodiscard]] const Options& options() const noexcept { return opts_; }
  [[nodiscard]] unsigned jobs() const noexcept { return runner_.jobs(); }
  [[nodiscard]] const std::string& experiment() const noexcept {
    return experiment_;
  }

  /// The seed list actually run: the grid's defaults, overridden by
  /// --seeds K (first K canonical seeds, then splitmix-derived extras —
  /// so K <= default count reproduces a prefix of the canonical runs).
  [[nodiscard]] std::vector<std::uint64_t> seeds_for(
      std::vector<std::uint64_t> defaults) const;

  /// Applies the --seeds override, evaluates the grid on the pool and
  /// records the result for the JSON document.
  ///
  /// When --trace or --metrics was given, exactly one *traced cell* —
  /// last variant, first seed, of the first grid run — receives a
  /// TaskContext with non-null telemetry/tracer/metrics (the last variant
  /// is by convention the full self-aware configuration). The same cell
  /// is picked regardless of --jobs, and trace timestamps are sim-time,
  /// so the exported file is bitwise-identical for every thread count.
  ///
  /// --serve designates the same cell as the *served cell*: it receives
  /// the telemetry/metrics hooks plus TaskContext::bridge, the HTTP bridge
  /// with the registry, the bus and the control journal already wired;
  /// the task adds its own objects and attaches the bridge to its engine.
  /// Every other cell gets a null bridge. The endpoint starts before the
  /// grid runs (so scrapers can connect mid-run; control commands that
  /// need the cell answer 503 until it attaches) and stays up through
  /// finish()'s --serve-linger window.
  GridResult run(Grid grid);

  /// The tracer/metrics captured from the traced cell (null before a
  /// traced run() happened).
  [[nodiscard]] const sim::Tracer* tracer() const noexcept {
    return tracer_.get();
  }
  [[nodiscard]] const sim::MetricsRegistry* metrics() const noexcept {
    return metrics_.get();
  }

  /// All grid results recorded so far.
  [[nodiscard]] const std::vector<GridResult>& results() const noexcept {
    return results_;
  }

  /// Accumulates one cell's per-shard executed-event counts
  /// (shard::ShardedWorld::shard_events(): index = shard id, last entry =
  /// coordinator) into the document's `measured` block, elementwise across
  /// cells. Thread-safe; no-op argument lists are ignored.
  void note_shard_events(const std::vector<std::uint64_t>& events);
  /// The elementwise sums recorded so far (exposed for tests).
  [[nodiscard]] std::vector<std::uint64_t> shard_events() const;

  /// The full BENCH_<exp>.json document (schema 2). Every field that
  /// depends on the clock, the host or the execution mode lives in the
  /// top-level `measured` object, and nowhere else:
  ///
  ///   measured.wall_clock_s / events_per_sec / peak_rss_mb / jobs
  ///   measured.shards / shard_events_total / shard_events_per_sec
  ///                                                   (--shards > 1)
  ///   measured.grids[i].{wall_s, jobs, cell_wall_s[]}  (i as in grids)
  ///
  /// Everything else — schema, experiment, meta (git_rev, fault_plan,
  /// scenario, events_total), grids, failed_cells — is byte-identical
  /// across --jobs, --shards, resume and serve (events_total aside for
  /// the latter two, which execute a different number of engine events).
  /// bench/bench_diff.py compares documents on exactly that split.
  [[nodiscard]] Json document() const;

  /// The harness checkpoint store (non-null when --checkpoint or --json
  /// was given — the latter so an interrupted run can still write a
  /// partial document). Exposed for tests.
  [[nodiscard]] const CheckpointStore* store() const noexcept {
    return store_.get();
  }

  /// Prints the timing/error footer, writes the JSON file when --json was
  /// given, and returns the process exit code (non-zero if any task
  /// failed or the JSON file could not be written).
  [[nodiscard]] int finish(std::ostream& os);
  [[nodiscard]] int finish();

 private:
  std::string experiment_;
  Options opts_;
  Runner runner_;
  std::vector<GridResult> results_;
  /// Engine::global_executed() at construction: document() reports the
  /// delta as this run's event throughput (events_total / events_per_sec).
  std::uint64_t events_at_start_ = 0;
  /// Per-shard executed-event totals accumulated by note_shard_events
  /// (measured "shard_events_total"/"shard_events_per_sec" when
  /// --shards > 1).
  mutable std::mutex shard_mutex_;
  std::vector<std::uint64_t> shard_events_;

  // Observability state for the traced cell (owned here so task lambdas
  // can reference it from worker threads; only the one traced cell ever
  // touches it).
  std::unique_ptr<sim::TelemetryBus> trace_bus_;
  std::unique_ptr<sim::Tracer> tracer_;
  std::unique_ptr<sim::MetricsRegistry> metrics_;
  bool trace_cell_assigned_ = false;
  std::string traced_cell_;  ///< "grid/variant/seed" label for the footer

  // sa::serve state (server + bridge), pimpl'd so this header stays free
  // of serve includes.
  struct ServeState;
  std::unique_ptr<ServeState> serve_;
  void start_serving();      ///< creates + starts ServeState (run() calls it)
  void linger_and_stop(std::ostream& os);  ///< finish() tail

  // Checkpoint / resume / control-journal state (sa::ckpt).
  //
  // `store_` records completed cells while the run is live (created when
  // --checkpoint or --json was given); `resume_store_` is the loaded
  // --resume checkpoint that completed cells are read back from. The
  // supervisor thread saves the store every --checkpoint-every seconds
  // and watches for SIGTERM/SIGINT: on a signal it saves a final
  // checkpoint, writes the partial JSON document (`"interrupted": true`),
  // and exits 128+sig without waiting for in-flight cells.
  std::unique_ptr<CheckpointStore> store_;
  std::unique_ptr<CheckpointStore> resume_store_;
  ckpt::ControlJournal journal_;   ///< live /control recording (serve)
  /// Commands every cell replays: --control-journal, then (on --resume)
  /// the journal recorded live before the interruption.
  std::vector<ckpt::JournalEntry> replay_;
  std::string world_ckpt_path_;    ///< opts_.checkpoint + ".world"
  std::size_t grid_index_ = 0;     ///< positional grid id for the stores
  std::thread supervisor_;
  std::atomic<bool> supervisor_stop_{false};
  void start_supervisor();
  void stop_supervisor();
  void save_store();               ///< journal snapshot + atomic store save
  [[noreturn]] void interrupted_exit(int sig);
  /// The one document builder behind document() and the partial document
  /// written on SIGTERM/SIGINT. `interrupted` marks meta `"interrupted":
  /// true` and leaves out events_total and the `measured` block (the run
  /// never finished). The grids are passed in because the interrupted path
  /// runs on the supervisor thread and must not read results_.
  [[nodiscard]] Json build_document(const std::vector<GridResult>& grids,
                                    bool interrupted) const;
};

}  // namespace sa::exp

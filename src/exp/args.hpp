// Shared command-line options for the experiment binaries.
//
// Every bench_e* binary accepts the same flag set so that the whole suite
// can be driven uniformly (and in parallel) by scripts and CI:
//
//   --jobs N         worker threads for the seed×variant grid (default:
//                    all hardware threads; results are identical for any N)
//   --seeds K        override the experiment's default seed count
//   --shards N       engine shards per scenario world (sa::shard); 1 =
//                    the single-engine path, N > 1 byte-identical to it
//   --json PATH      write a machine-readable BENCH_<exp>.json document
//   --trace PATH     write a Chrome/Perfetto trace-event JSON of one
//                    designated cell (bitwise-stable across --jobs N)
//   --metrics PATH   write that cell's metrics snapshots as JSONL
//   --fault-plan S   overlay a fault::FaultPlan spec on experiments that
//                    support fault injection (others reject it)
//   --scenario S     overlay a gen::ScenarioSpec on scenario-driven
//                    experiments (others ignore it)
//   --serve PORT     expose the designated cell live over HTTP (sa::serve)
//   --serve-bind A   bind address for --serve (default 127.0.0.1)
//   --serve-token T  require T on POST /control (401 otherwise)
//   --serve-linger S keep the endpoint up S seconds after the run
//   --checkpoint P   periodically checkpoint completed cells to P; SIGTERM
//                    and SIGINT save a final checkpoint before exiting
//   --checkpoint-every S   seconds between periodic checkpoint saves
//   --resume P       load completed cells from a checkpoint instead of
//                    re-running them (byte-identical final document)
//   --control-journal S    replay a recorded control stream into cells
//
// The flag table itself lives in StandardArgs: one row per flag carrying
// the spelling, value validation and help text, so a new flag lands in all
// bench binaries (parser *and* usage text) by adding one row — not by
// editing an if/else chain and a separate usage string in lockstep.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace sa::exp {

struct Options {
  unsigned jobs = 0;      ///< worker threads; 0 = hardware_concurrency()
  std::size_t seeds = 0;  ///< seed-count override; 0 = experiment default
  /// Engine shards for scenario-driven experiments (sa::shard): 1 = the
  /// legacy single-engine path, bit-for-bit; N > 1 partitions each
  /// world's districts/grids/edge nodes across N worker-owned engines
  /// with a byte-identical trajectory. N > 1 pins --jobs to 1 (the shard
  /// workers are the parallelism) and rejects --checkpoint/--resume
  /// (sharded worlds are restored by replay, not snapshot).
  unsigned shards = 1;
  std::string json;       ///< BENCH json output path; empty = no JSON
  std::string trace;      ///< Chrome trace output path; empty = no trace
  std::string metrics;    ///< metrics JSONL output path; empty = none
  /// Fault-plan spec (fault::FaultPlan::parse syntax); empty = the
  /// experiment's built-in plan. Only fault-aware benches consume it.
  std::string fault_plan;
  /// Scenario spec (gen::ScenarioSpec::parse syntax); empty = the
  /// experiment's built-in scenario. Only scenario-aware benches consume
  /// it (bench_e15_city, examples/smart_city).
  std::string scenario;
  /// HTTP port for the sa::serve endpoint; -1 = not serving, 0 = pick an
  /// ephemeral port (printed at startup).
  int serve_port = -1;
  /// Bind address of the endpoint (default loopback; 0.0.0.0 lets a load
  /// generator on another host connect — pair with serve_token).
  std::string serve_bind = "127.0.0.1";
  /// Shared token required on POST /control when non-empty (constant-time
  /// compare, 401 on mismatch).
  std::string serve_token;
  /// Seconds to keep the endpoint up after the run finishes (so scrapers
  /// can read final state); POST /control cmd=shutdown ends it early.
  double serve_linger = 0.0;
  /// Checkpoint file path (sa::ckpt store of completed grid cells,
  /// CRC-framed, written atomically); empty = no checkpointing. The
  /// designated cell's world snapshot (cmd=checkpoint) goes to
  /// "<path>.world".
  std::string checkpoint;
  /// Wall-clock seconds between periodic checkpoint saves (a final save
  /// always happens at finish / on SIGTERM).
  double checkpoint_every = 30.0;
  /// Resume from this checkpoint: completed cells are loaded instead of
  /// re-run (falling back to "<path>.prev" when the primary is corrupt);
  /// a shape mismatch against the running grids exits 2.
  std::string resume;
  /// Control-journal spec ("T cmd=...&k=v; T ...") replayed into every
  /// cell that supports it (sa::ckpt::parse_journal_spec syntax). A
  /// resumed run automatically appends the journal recorded live before
  /// the interruption.
  std::string control_journal;
  bool help = false;      ///< --help was given
};

/// The shared flag table: spelling + validation + help per flag, and the
/// generic "--flag value" / "--flag=value" / alias walk over it.
class StandardArgs {
 public:
  struct Flag {
    std::string name;     ///< "--jobs"
    std::string alias;    ///< "-j" ("" = none)
    std::string metavar;  ///< "N" ("" = boolean flag, takes no value)
    std::string help;     ///< usage body (indented, newline-separated)
    /// Applies a (validated) value to the options; returns "" on success,
    /// else the error message. Boolean flags receive an empty value.
    std::function<std::string(std::string_view value, Options& out)> apply;
  };

  /// The standard table every bench binary shares.
  StandardArgs();

  /// Extends the table (for binaries with extra flags, e.g. examples).
  void add(Flag flag) { flags_.push_back(std::move(flag)); }
  [[nodiscard]] const std::vector<Flag>& flags() const noexcept {
    return flags_;
  }

  /// Parses argv into `out`. Returns an empty string on success, otherwise
  /// a one-line error message (the caller should print usage and exit).
  /// Accepts `--flag value` and `--flag=value` spellings plus aliases.
  [[nodiscard]] std::string parse(int argc, const char* const* argv,
                                  Options& out) const;

  /// Usage text generated from the table.
  [[nodiscard]] std::string usage(std::string_view program) const;

 private:
  std::vector<Flag> flags_;
};

/// Parses with the standard table (what every bench binary calls).
[[nodiscard]] std::string parse_args(int argc, const char* const* argv,
                                     Options& out);

/// Usage text of the standard table, for --help and parse errors.
[[nodiscard]] std::string usage(std::string_view program);

}  // namespace sa::exp

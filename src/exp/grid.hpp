// Declarative seed × variant experiment grids.
//
// An experiment describes its runs as a Grid — a list of named variants,
// a list of seeds, and a task function evaluating one (variant, seed)
// cell to a set of named metrics. The Runner fans the cells out across
// hardware threads; because every cell owns its own substrate instances
// and a deterministic RNG stream derived from (experiment, variant, seed)
// via splitmix64, the results are bitwise-identical regardless of thread
// count or scheduling order.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/journal.hpp"
#include "sim/rng.hpp"

namespace sa::sim {
class TelemetryBus;
class Tracer;
class MetricsRegistry;
}  // namespace sa::sim

namespace sa::serve {
class SimBridge;
}  // namespace sa::serve

namespace sa::exp {

/// Named metric values produced by one task, in a fixed (reported) order.
using Metrics = std::vector<std::pair<std::string, double>>;

/// What one grid cell returns: metrics plus an optional free-text payload
/// (e.g. a sample explanation) surfaced in the console/JSON reports.
struct TaskOutput {
  Metrics metrics;
  std::string note;

  TaskOutput() = default;
  TaskOutput(Metrics m, std::string n = {})  // NOLINT(google-explicit-constructor)
      : metrics(std::move(m)), note(std::move(n)) {}
};

/// FNV-1a string hash (stable across platforms; used for stream keys).
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

/// The deterministic RNG stream key of a grid cell: splitmix64 chained
/// over (experiment, variant, seed). Independent of thread count and of
/// every other cell, so adding variants/seeds never perturbs existing ones.
constexpr std::uint64_t stream_of(std::string_view experiment,
                                  std::string_view variant,
                                  std::uint64_t seed) noexcept {
  return sim::mix64(sim::mix64(sim::mix64(fnv1a(experiment)) ^ fnv1a(variant)) ^
                    seed);
}

/// Everything a task may depend on. Tasks must derive all randomness from
/// `seed` (substrate seeding, as the original serial binaries did) and/or
/// `rng()` — never from global state, time, or other cells.
struct TaskContext {
  std::string_view experiment;   ///< owning experiment name
  std::string_view variant_name; ///< grid.variants[variant]
  std::size_t variant = 0;       ///< index into grid.variants
  std::uint64_t seed = 0;        ///< the cell's seed
  std::uint64_t stream = 0;      ///< stream_of(experiment, variant, seed)

  /// Engine shards this cell should run its world across (--shards N;
  /// sa::shard). Tasks that build scenario worlds build one
  /// shard::ShardedWorld at this count — one shard runs inline on one
  /// engine, and trajectories are byte-identical for every value — and
  /// report the per-shard event counts back through
  /// Harness::note_shard_events. Tasks without a scenario world ignore it.
  unsigned shards = 1;

  /// Observability seams — each is on when its object is handed in and
  /// off when the pointer is null. Non-null only for the harness's *traced
  /// cell* (one designated cell when --trace/--metrics/--serve was given;
  /// see exp/harness.hpp). Tasks that support tracing wire these into
  /// their substrate/agent configs. They must never influence the
  /// trajectory: telemetry and tracing never touch an Rng, so a task's
  /// metrics must be identical whether or not these are set.
  sim::TelemetryBus* telemetry = nullptr;
  sim::Tracer* tracer = nullptr;
  sim::MetricsRegistry* metrics = nullptr;

  /// The live HTTP bridge — non-null only for the *served cell* when
  /// --serve was given (the same designated cell as tracing). The harness
  /// has already wired the registry, the bus and the control journal;
  /// a task that supports serving adds its own objects through the
  /// bridge's setters and then attaches it, once, before running:
  ///   if (ctx.bridge != nullptr) {
  ///     ctx.bridge->set_injector(&injector);  // agents, ladders, ...
  ///     ctx.bridge->attach(engine);
  ///   }
  /// attach() schedules snapshot-publish events on the engine; like the
  /// tracer they draw no randomness, so serving never perturbs metrics.
  /// Everything handed to the bridge must outlive the run.
  serve::SimBridge* bridge = nullptr;

  /// Control commands to replay into this cell, in order (empty when
  /// none). Set for every cell from --control-journal, parsed once at
  /// startup (plus, on --resume, the journal recorded live before the
  /// interruption); tasks that support it schedule the entries on their
  /// engine at the recorded sim times (ckpt::schedule_replay).
  std::span<const ckpt::JournalEntry> control_journal;

  /// Destination for this cell's on-demand world snapshot (the /control
  /// cmd=checkpoint path) — non-empty only for the harness's designated
  /// cell when --checkpoint was given.
  std::string_view checkpoint_path;

  /// A fresh generator on this cell's private stream.
  [[nodiscard]] sim::Rng rng() const noexcept { return sim::Rng{stream}; }
};

struct Grid {
  std::string name;                   ///< short id, e.g. "e1" or "e5.cloud"
  std::vector<std::string> variants;  ///< row/configuration names
  std::vector<std::uint64_t> seeds;   ///< replications per variant
  std::function<TaskOutput(const TaskContext&)> task;
};

}  // namespace sa::exp

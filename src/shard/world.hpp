// ShardedWorld: one generated world, N engine shards, byte-identical to
// the single-engine run. It is the one world type every caller that takes
// a shard count builds.
//
// One shard is the plain gen::Scenario run: no shard engine, no worker
// thread, no outbox, no barrier, every unit on the Scenario's own engine
// and every Scenario::Options seam (telemetry, tracer, metrics) passed
// through, so world().register_checkpoint() works as on a bare Scenario.
//
// Topology (N > 1). The world's units (camera districts, CPN grids, edge
// nodes — see shard::partition_world) are placed on N worker-owned
// sim::Engines via gen::Scenario::Options::Placement. Everything that
// couples units or substrates stays on one *coordinator* engine (the
// Scenario's own): cross-substrate coupling windows, the cloud backend +
// autoscaler, knowledge exchange and its retries, the whole fault
// injector, control journal replay and the serve bridge. Shard-local
// events therefore never read or write another shard's state, and every
// cross-shard interaction executes on the coordinator.
//
// Build and teardown (N > 1). The worker pool starts before the Scenario
// exists. Each shard's camera districts, CPN grids and edge nodes are
// built on that shard's worker (Placement::for_each_shard), in the global
// build order restricted to them: districts, then grids, then edge nodes.
// The coordinator-owned parts are built on the calling thread: the cloud
// once the workers have built their districts and grids and before they
// build their edge nodes (the one-engine registration order), then
// couplings, exchange, injector and the degradation ladders. No unit draws from a stream another unit's build
// advances (district seeds are mix64(seed ^ salt ^ replica_salt(d)), and a
// grid's gateways come from gwbase.fork(g), which never advances its
// parent), so every engine, shard or coordinator, sees the same schedule
// sequence as the one-engine build. The destructor frees the Scenario
// first — ladders on the calling thread, then each shard's units on its
// worker — and only then stops the pool; each worker frees its own engine
// as it exits. Building and freeing on one thread matters: glibc malloc
// gives each thread its own arena, and frees of one arena's blocks
// serialize on that arena's lock. With units built on the coordinator,
// freeing them on two workers took each worker about the whole serial
// time (62–74 ms on perfbench metro), and a 4-shard full-scale teardown
// was slower than an unsharded one. A throw during construction, on the
// caller or inside a worker's build (carried across as an exception_ptr),
// stops and joins the pool and reaches the caller. The build barrier is
// not a simulation barrier, so lag_seconds() does not count it.
//
// Protocol (conservative, lookahead-windowed). The gap to the
// coordinator's next event (t, o) is the lookahead window: every shard
// may safely advance through all events strictly before (t, o) because no
// cross-shard effect can occur inside the window. The loop is
//
//   while coordinator has an event (t, o) <= horizon:
//     barrier: every shard runs run_until_before(t, o) on its worker
//     drain + merge the inter-shard mailboxes (shard::merge_remote)
//     coordinator executes the one event at (t, o)
//   barrier: every shard runs run_until(horizon); coordinator follows.
//
// Why byte-equality holds. Within one engine, ties at (t, order) resolve
// by scheduling sequence exactly as in the monolithic world (the same
// build code runs in the same order). Across the coordinator/shard split,
// a tie at (t, order) is always "long-period coordinator stream vs
// short-period shard stream" (coupling window vs substrate step at order
// 0, autoscaler vs manager/degradation epoch at order 1): in the
// monolithic engine the longer-period stream was armed further in the
// past, carries the older sequence number, and runs *first* — which is
// precisely what the barrier loop reproduces by running the coordinator
// event before releasing the shards into (t, order). validate() rejects
// the spec configurations where that dominance argument would not hold
// (window not strictly longer than the step period; manager epochs longer
// than the autoscaler's); with one shard there is no split to guard.
// Mailbox traffic is re-ordered by the global (t, order, origin unit,
// per-origin seq) key, which is independent of the unit-to-shard packing.
// Hence the trajectory — and every downstream summary byte — matches the
// single-engine run for any shard count (tests/support/metamorphic.hpp:
// shard_count_invariant).
//
// Observability (N > 1). Shard-owned components run off the coordinator
// thread, so they are built without telemetry hooks, and the tracer and
// metrics registry are cleared (agent spans and degradation timings would
// be written from shard threads); coordinator-owned components (cloud,
// injector, exchange, bridge) keep the telemetry bus. The exp harness
// therefore rejects --trace and --metrics with --shards > 1, which would
// otherwise write files holding no spans and no metrics.
// Checkpointing a sharded run is a typed error (the exp harness rejects
// --checkpoint with --shards > 1 before construction).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/scenario.hpp"
#include "gen/spec.hpp"
#include "shard/mailbox.hpp"
#include "shard/partition.hpp"
#include "sim/engine.hpp"

namespace sa::shard {

/// Typed configuration error: the spec or options cannot be sharded
/// deterministically (never a silently-different trajectory).
class ShardError : public std::runtime_error {
 public:
  explicit ShardError(const std::string& what) : std::runtime_error(what) {}
};

class ShardedWorld {
 public:
  struct Options {
    std::size_t shards = 1;
    /// The world's own options. Placement is always overwritten; more than
    /// one shard also clears tracer and metrics (see Observability above).
    gen::Scenario::Options scenario{};
  };

  /// Validates and builds the world. With one shard that is the plain
  /// Scenario; with more it partitions the units across the shard engines,
  /// starts one worker thread per shard and builds each shard's units on
  /// its worker. Throws ShardError on specs whose sharded execution could
  /// not be proven byte-identical (see validate()), std::invalid_argument
  /// on spec expansion errors; no thread outlives a throw.
  ShardedWorld(const gen::ScenarioSpec& spec, std::uint64_t run_seed,
               Options opts);
  ~ShardedWorld();

  ShardedWorld(const ShardedWorld&) = delete;
  ShardedWorld& operator=(const ShardedWorld&) = delete;

  /// Runs to the spec's world horizon. Resumable: run_until beyond.
  void run();
  void run_until(double t);

  [[nodiscard]] gen::Scenario& world() noexcept { return *world_; }
  [[nodiscard]] const Partition& partition() const noexcept { return part_; }
  [[nodiscard]] std::size_t shards() const noexcept { return part_.shards; }

  /// Events executed per shard engine so far (index = shard id; the last
  /// entry is the coordinator, the only one with one shard). Safe to call
  /// between runs, and from coordinator-side events (e.g. the serve
  /// bridge's publish event) while the shards are barrier-paused.
  [[nodiscard]] std::vector<std::uint64_t> shard_events() const;
  /// Cumulative wall-clock seconds the coordinator spent waiting at
  /// barriers — the sharding overhead signal behind sa_shard_lag_seconds
  /// (0 with one shard, which raises no barrier).
  [[nodiscard]] double lag_seconds() const noexcept { return lag_seconds_; }

  /// Checks `spec`/`opts` against the byte-equality preconditions (with
  /// one shard, only `shards >= 1`) and throws ShardError naming the first
  /// violated one. Called by the constructor; public so callers can
  /// pre-flight a spec.
  static void validate(const gen::ScenarioSpec& spec, const Options& opts);

 private:
  struct Job {
    double t = 0.0;
    int order = 0;
    bool before = false;  ///< true: run_until_before(t, order); else run_until(t)
    /// Set: run (*task)(shard) instead of advancing the engine (build and
    /// teardown; see Placement::for_each_shard).
    const std::function<void(std::size_t)>* task = nullptr;
  };

  void pump(double horizon);
  /// Publishes `job` to every worker and waits until all have done it.
  void dispatch(const Job& job);
  /// dispatch(), with the wait charged to lag_seconds().
  void release_and_wait(const Job& job);
  /// Runs `task(s)` on each shard s's worker; rethrows a task's exception
  /// on the calling thread once every worker has finished.
  void on_each_shard(const std::function<void(std::size_t)>& task);
  void stop_pool();
  void apply_mailboxes();
  void worker_loop(std::size_t shard);

  Partition part_;
  std::vector<std::unique_ptr<sim::Engine>> shard_engines_;
  std::vector<std::unique_ptr<Outbox>> outboxes_;  // one per shard
  gen::Scenario::Options::Placement placement_;
  std::unique_ptr<gen::Scenario> world_;  // owns the coordinator engine

  double lag_seconds_ = 0.0;

  // Worker pool: one thread per shard, generation-counted barrier. Null
  // with one shard.
  struct Pool;
  std::unique_ptr<Pool> pool_;
};

}  // namespace sa::shard

// SimBridge: the concurrency seam between one deterministic simulation
// thread and the embedded HTTP server's worker threads.
//
// Reads and writes cross the seam by different mechanisms, chosen so the
// sim thread never waits on a server thread:
//
//   reads   At each step-boundary publish the sim thread builds one
//           immutable Frame and swaps it into a single SnapshotCell: the
//           registry's metric values, the bus category counts, the shard
//           counts, the interned name table and the rendered /status
//           document. /metrics, /status and /events each read one frame,
//           lock-free, so a page never mixes two publishes (the server's
//           own counters are the one part sampled at scrape time). The
//           name table is shared from frame to frame and rebuilt only
//           when the registry or the bus has interned a new name.
//
//   events  A FanoutSink registered on the TelemetryBus copies events into
//           bounded per-subscriber queues with try_lock + drop-counter
//           semantics; the /events SSE handler drains its own queue.
//
//   writes  POST /control enqueues commands into a mailbox; a periodic
//           engine event drains it (try_lock — a contended drain just
//           retries next period) and applies commands *between* events, so
//           control lands at step boundaries and the trajectory downstream
//           of any command is again deterministic. Pause blocks the sim
//           thread on a condition variable inside that event; resume and
//           shutdown release it. Shutdown is a plain atomic flag (it must
//           be observable with no engine running, e.g. during the
//           harness's --serve-linger wait).
//
// Determinism: attaching the bridge schedules extra engine events, but
// they draw no randomness and mutate nothing the simulation reads, and
// the engine's (time, order, seq) tie-breaking keeps the relative order
// of pre-existing events unchanged — tests/integration/
// serve_determinism_test.cpp asserts byte-identical trajectories with a
// busy scraper attached.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/journal.hpp"
#include "core/agent.hpp"
#include "core/degrade.hpp"
#include "fault/fault.hpp"
#include "serve/prometheus.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/snapshot.hpp"
#include "sim/telemetry.hpp"

namespace sa::serve {

class SimBridge {
 public:
  struct Options {
    /// Sim-time period of the publish + mailbox-drain event.
    double publish_period = 0.1;
    /// Engine order of that event: far above exchange (2) so it runs after
    /// everything else scheduled at the same instant.
    int event_order = 1000;
    /// Newest explanations included in /status.
    std::size_t status_explanations = 8;
    /// Newest injector records included in /status.
    std::size_t status_faults = 16;
    /// Per-SSE-subscriber queue capacity (drop-with-counter beyond).
    std::size_t sse_queue = 1024;
    /// Newest slow-request ring entries included in /status.
    std::size_t status_slow_requests = 16;
    /// When non-empty, POST /control requires this shared token (form
    /// field `token=` or `Authorization: Bearer …`), compared in constant
    /// time; a mismatch answers 401. Lets a load test run from a second
    /// host without leaving the control plane open alongside it.
    std::string control_token;
  };

  SimBridge() : SimBridge(Options{}) {}
  explicit SimBridge(Options opts);

  // -- Wiring (sim thread, before the run starts) ---------------------------
  void set_metrics(sim::MetricsRegistry* metrics) { metrics_ = metrics; }
  /// Registers the bridge's FanoutSink on `bus` and snapshots its category
  /// counters at every publish.
  void set_telemetry(sim::TelemetryBus* bus);
  /// Adds an agent to /status (name defaults to agent->id()).
  void add_agent(core::SelfAwareAgent* agent);
  /// Adds a degradation ladder to /status.
  void add_degradation(core::DegradationPolicy* policy);
  /// Enables POST /control fault injection and the /status fault section.
  void set_injector(fault::Injector* injector) { injector_ = injector; }
  /// Records every applied inject command into `journal` with its
  /// sim-time stamp at drain time — the control stream a restored
  /// checkpoint replays. Non-owning; null disables.
  void set_journal(ckpt::ControlJournal* journal) { journal_ = journal; }

  /// Wires a sharded run's per-shard stats (sa::shard): the source runs on
  /// the sim (coordinator) thread at every publish boundary — where the
  /// shard engines are barrier-paused, so reading their counters is
  /// race-free — and returns the per-shard executed-event counts (last
  /// entry = coordinator) plus the cumulative barrier lag. The bridge
  /// publishes the copy for /metrics (`sa_shard_events_total{shard=…}`,
  /// `sa_shard_lag_seconds`) and the /status `shards` block. Null disables.
  using ShardSource = std::function<ShardSnapshot()>;
  void set_shard_source(ShardSource source) {
    shard_source_ = std::move(source);
  }

  /// Enables the token-gated `cmd=checkpoint` control command: the hook
  /// runs on the sim thread at the next mailbox drain (a step boundary,
  /// so the snapshot is consistent) and returns whether the save
  /// succeeded. The bridge then stamps /status's checkpoint block.
  using CheckpointHook = std::function<bool(double t)>;
  void set_checkpoint_hook(CheckpointHook hook) {
    checkpoint_hook_ = std::move(hook);
  }
  /// Stamps /status's `checkpoint.last_t` / `checkpoint.count` — called by
  /// the drain-time hook path and by the harness's periodic supervisor
  /// (any thread; atomics).
  void note_checkpoint(double t) noexcept {
    ckpt_last_t_.store(t, std::memory_order_relaxed);
    ckpt_count_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Schedules the periodic publish + mailbox-drain event on `engine` and
  /// publishes once immediately. Call after all wiring, before the run.
  /// The engine (and everything wired) must outlive the bridge's server.
  void attach(sim::Engine& engine);

  /// Registers /metrics, /status, /events, /control and /healthz on
  /// `server`. Call before server.start(); the bridge must outlive it.
  void install(Server& server);

  // -- Harness-side observability -------------------------------------------
  /// True once a POST /control shutdown arrived (direct atomic — works
  /// with no engine attached, e.g. during --serve-linger).
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool paused() const noexcept {
    return paused_.load(std::memory_order_relaxed);
  }

  /// One publish from the sim thread right now (also what the periodic
  /// event calls). Exposed for wiring without an engine and for tests.
  void publish_now(double t);

  /// Drains and applies queued control commands (sim thread). Blocks here
  /// while paused. Exposed for tests; the attached event calls it.
  void drain_mailbox(sim::Engine* engine);

 private:
  // Only commands that act on sim-thread state ride the mailbox: inject
  // as a parsed ckpt::ControlCommand, and checkpoint as an empty entry
  // (nullopt), so both apply in posting order. Pause, resume and shutdown
  // are atomics flipped directly by the handler: pause takes effect at the
  // next drain (a step boundary), and resume/shutdown must be able to
  // release a sim thread that is *blocked* in the drain — a mailboxed
  // resume would never be read. The releasing stores happen under
  // pause_mu_ so the notify cannot race the waiter's predicate check.
  using Posted = std::optional<ckpt::ControlCommand>;

  /// Names the registry and the bus have interned, in id order. Both only
  /// ever append, so a table stays current until one of its counts grows.
  struct NameTable {
    std::vector<std::string> metrics;
    std::vector<std::string> categories;
    std::vector<std::string> subjects;
  };

  /// Everything one publish makes visible to the server threads.
  /// Immutable once published; the names in `metrics` and `bus` view
  /// `names`, which the frame keeps alive. Until the first publish the
  /// cell holds a frame with only a `{"published":false}` status.
  struct Frame {
    std::shared_ptr<const NameTable> names;
    std::optional<LiveSnapshot> metrics;
    std::optional<BusSnapshot> bus;
    std::optional<ShardSnapshot> shard;
    std::string status;  ///< the rendered /status document
  };

  void post(Posted cmd);
  /// The name table for the next frame: the last one built, or a new one
  /// if the registry or the bus has grown since (sim thread).
  [[nodiscard]] std::shared_ptr<const NameTable> current_names();
  [[nodiscard]] HttpResponse handle_metrics() const;
  [[nodiscard]] HttpResponse handle_status() const;
  [[nodiscard]] HttpResponse handle_control(const HttpRequest& req);
  void handle_events(StreamWriter& writer);
  [[nodiscard]] std::string build_status(double t,
                                         const ShardSnapshot* shard) const;
  [[nodiscard]] ServeStats serve_stats() const;

  Options opts_;

  // Wired collaborators (sim-thread objects; only published copies cross).
  sim::MetricsRegistry* metrics_ = nullptr;
  sim::TelemetryBus* bus_ = nullptr;
  fault::Injector* injector_ = nullptr;
  ckpt::ControlJournal* journal_ = nullptr;
  CheckpointHook checkpoint_hook_;
  ShardSource shard_source_;
  std::vector<core::SelfAwareAgent*> agents_;
  std::vector<core::DegradationPolicy*> ladders_;
  Server* server_ = nullptr;       ///< set by install(); for self-stats
  sim::Engine* engine_ = nullptr;  ///< set by attach(); for /status

  std::unique_ptr<sim::FanoutSink> fanout_;

  // The one published frame (written by the sim thread, read by workers)
  // and the name table it last carried (sim thread only).
  sim::SnapshotCell<Frame> frame_;
  std::shared_ptr<const NameTable> names_;

  // Control mailbox (server threads post; sim thread try-locks to drain).
  std::mutex mailbox_mu_;
  std::vector<Posted> mailbox_;

  // Pause/resume: the sim thread blocks inside drain_mailbox().
  std::mutex pause_mu_;
  std::condition_variable pause_cv_;
  std::atomic<bool> paused_{false};
  std::atomic<bool> shutdown_{false};

  std::atomic<std::uint64_t> commands_applied_{0};
  std::atomic<double> ckpt_last_t_{-1.0};  ///< -1 before the first save
  std::atomic<std::uint64_t> ckpt_count_{0};
  std::uint64_t publishes_ = 0;  ///< sim thread only
};

}  // namespace sa::serve

#include "exp/harness.hpp"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "exp/metrics_jsonl.hpp"
#include "exp/trace_json.hpp"
#include "serve/bridge.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"

namespace sa::exp {
namespace {

/// Set by the SIGTERM/SIGINT handler; polled by the supervisor thread.
/// The handler itself does nothing else — saving a checkpoint from signal
/// context would call non-async-signal-safe functions. An atomic, not a
/// volatile sig_atomic_t: the handler may run on any thread while the
/// supervisor reads the flag, and only a lock-free atomic is both
/// signal-safe and race-free across threads.
std::atomic<int> g_signal{0};
static_assert(std::atomic<int>::is_always_lock_free);

extern "C" void harness_signal_handler(int sig) { g_signal.store(sig); }

void install_signal_handlers() {
#if defined(__unix__) || defined(__APPLE__)
  struct sigaction sa {};
  sa.sa_handler = harness_signal_handler;
  sigemptyset(&sa.sa_mask);
  // SA_RESTART keeps the serve/loadgen socket loops from spuriously
  // failing while the supervisor finishes the shutdown checkpoint (they
  // handle EINTR regardless — see tests/serve/eintr_test.cpp).
  sa.sa_flags = SA_RESTART;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
#else
  std::signal(SIGTERM, harness_signal_handler);
  std::signal(SIGINT, harness_signal_handler);
#endif
}

}  // namespace

/// Owns the HTTP endpoint for one served run.
struct Harness::ServeState {
  serve::SimBridge bridge;
  serve::Server server;

  ServeState(std::uint16_t port, std::string bind,
             serve::SimBridge::Options bridge_opts)
      : bridge(bridge_opts), server([port, &bind] {
          serve::Server::Options o;
          o.port = port;
          o.bind_address = std::move(bind);
          return o;
        }()) {}
};

Json to_json(const GridResult& result) {
  Json g = Json::object();
  g["name"] = result.name;
  Json& variants = g["variants"] = Json::array();
  for (const auto& v : result.variants) variants.push_back(v);
  Json& seeds = g["seeds"] = Json::array();
  for (const auto s : result.seeds) {
    seeds.push_back(static_cast<std::int64_t>(s));
  }
  Json& results = g["results"] = Json::array();
  for (const auto& t : result.tasks) {
    Json cell = Json::object();
    cell["variant"] = result.variants[t.variant];
    cell["seed"] = static_cast<std::int64_t>(t.seed);
    Json& metrics = cell["metrics"] = Json::object();
    for (const auto& [name, value] : t.metrics) metrics[name] = value;
    if (!t.note.empty()) cell["note"] = t.note;
    if (!t.error.empty()) cell["error"] = t.error;
    results.push_back(std::move(cell));
  }
  Json& summary = g["summary"] = Json::object();
  for (std::size_t v = 0; v < result.variants.size(); ++v) {
    Json& per_variant = summary[result.variants[v]] = Json::object();
    const Aggregate agg = result.aggregate(v);
    for (const auto& metric : agg.names()) {
      const MetricSummary s = agg.summary(metric);
      Json& m = per_variant[metric] = Json::object();
      m["n"] = s.n;
      m["mean"] = s.mean;
      m["stddev"] = s.stddev;
      m["ci95"] = s.ci95;
      m["min"] = s.min;
      m["max"] = s.max;
    }
  }
  return g;
}

double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
#endif
  }
#endif
  return 0.0;
}

std::string git_rev() {
  if (const char* env = std::getenv("SA_GIT_REV"); env && *env) return env;
  std::string rev;
  if (FILE* p = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, p)) rev = buf;
    pclose(p);
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

Harness::Harness(std::string experiment, int argc, const char* const* argv)
    : experiment_(std::move(experiment)),
      opts_([&] {
        Options o;
        const std::string err = parse_args(argc, argv, o);
        const char* prog = argc > 0 ? argv[0] : "bench";
        if (!err.empty()) {
          std::cerr << prog << ": " << err << "\n" << usage(prog);
          std::exit(2);
        }
        if (o.help) {
          std::cout << usage(prog);
          std::exit(0);
        }
        return o;
      }()),
      runner_(opts_.jobs) {
  events_at_start_ = sim::Engine::global_executed();

  if (!opts_.resume.empty()) {
    auto loaded = std::make_unique<CheckpointStore>();
    std::string used_path;
    std::string fallback_error;
    const ckpt::Status st =
        loaded->load(opts_.resume, &used_path, &fallback_error);
    if (st.code == ckpt::Errc::kIo) {
      // No checkpoint yet (neither the file nor its .prev rotation): a
      // fresh start — so crash-supervised scripts can always pass
      // --resume alongside --checkpoint.
      std::cout << "[" << experiment_ << "] no checkpoint at " << opts_.resume
                << ", starting fresh\n";
    } else if (!st.ok()) {
      std::cerr << "error: --resume " << opts_.resume << ": "
                << st.to_string() << "\n";
      std::exit(2);
    } else {
      if (loaded->experiment() != experiment_) {
        std::cerr << "error: --resume " << opts_.resume
                  << ": checkpoint belongs to experiment '"
                  << loaded->experiment() << "', not '" << experiment_
                  << "'\n";
        std::exit(2);
      }
      if (!fallback_error.empty()) {
        std::cout << "[" << experiment_ << "] primary checkpoint rejected ("
                  << fallback_error << "), using " << used_path << "\n";
      }
      std::cout << "[" << experiment_ << "] resuming from " << used_path
                << " (" << loaded->completed() << " completed cells)\n";
      resume_store_ = std::move(loaded);
    }
  }

  // Parsed once here, so a malformed spec fails fast instead of erroring
  // every cell, and every cell replays the same entries.
  if (const ckpt::Status st =
          ckpt::parse_journal_spec(opts_.control_journal, replay_);
      !st.ok()) {
    std::cerr << "error: --control-journal: " << st.to_string() << "\n";
    std::exit(2);
  }
  if (resume_store_ != nullptr) {
    // Re-arm the control stream recorded live before the interruption:
    // incomplete cells replay it at the original sim times, and the new
    // store keeps carrying it (pre-seeding journal_ makes every later
    // save, and any further resume, cumulative).
    std::vector<ckpt::JournalEntry> recorded = resume_store_->journal();
    replay_.insert(replay_.end(), recorded.begin(), recorded.end());
    journal_.set_entries(std::move(recorded));
  }

  if (!opts_.checkpoint.empty() || !opts_.json.empty()) {
    store_ = std::make_unique<CheckpointStore>(experiment_);
    if (!opts_.checkpoint.empty()) {
      world_ckpt_path_ = opts_.checkpoint + ".world";
    }
    start_supervisor();
  }
}

Harness::~Harness() { stop_supervisor(); }

void Harness::start_supervisor() {
  if (supervisor_.joinable()) return;
  install_signal_handlers();
  supervisor_ = std::thread([this] {
    auto last_save = std::chrono::steady_clock::now();
    while (!supervisor_stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (const int sig = g_signal.load(); sig != 0)
        interrupted_exit(sig);
      if (opts_.checkpoint.empty()) continue;
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_save).count() >=
          opts_.checkpoint_every) {
        save_store();
        last_save = now;
      }
    }
  });
}

void Harness::stop_supervisor() {
  supervisor_stop_.store(true, std::memory_order_relaxed);
  if (supervisor_.joinable()) supervisor_.join();
}

void Harness::save_store() {
  if (store_ == nullptr || opts_.checkpoint.empty()) return;
  store_->set_journal(journal_.snapshot());
  if (const ckpt::Status st = store_->save(opts_.checkpoint); !st.ok()) {
    std::cerr << "warning: checkpoint save to " << opts_.checkpoint
              << " failed: " << st.to_string() << "\n";
  }
}

void Harness::interrupted_exit(int sig) {
  // Supervisor-thread context, workers still mid-cell: only the
  // mutex-guarded store, the journal, and immutable options are touched.
  if (store_ != nullptr) {
    store_->set_interrupted(true);
    save_store();
  }
  std::cerr << "[" << experiment_ << "] interrupted by signal " << sig;
  if (!opts_.checkpoint.empty()) {
    std::cerr << "; checkpoint saved to " << opts_.checkpoint << " ("
              << (store_ != nullptr ? store_->completed() : 0)
              << " completed cells, resume with --resume " << opts_.checkpoint
              << ")";
  }
  std::cerr << "\n";
  if (!opts_.json.empty() && store_ != nullptr) {
    std::ofstream out(opts_.json);
    if (out) {
      build_document(store_->grid_results(), /*interrupted=*/true).dump(out);
      out << "\n";
      out.flush();
    }
  }
  std::_Exit(128 + sig);
}

void Harness::start_serving() {
  if (serve_ != nullptr || opts_.serve_port < 0) return;
  serve::SimBridge::Options bridge_opts;
  bridge_opts.control_token = opts_.serve_token;
  serve_ = std::make_unique<ServeState>(
      static_cast<std::uint16_t>(opts_.serve_port), opts_.serve_address,
      std::move(bridge_opts));
  serve_->bridge.set_metrics(metrics_.get());
  serve_->bridge.set_telemetry(trace_bus_.get());
  serve_->bridge.set_journal(&journal_);
  serve_->bridge.install(serve_->server);
  if (!serve_->server.start()) {
    std::cerr << "error: --serve: " << serve_->server.error() << "\n";
    std::exit(2);
  }
  std::cout << "[" << experiment_ << "] serving on 127.0.0.1:"
            << serve_->server.port() << " (cell " << traced_cell_ << ")\n";
}

void Harness::linger_and_stop(std::ostream& os) {
  if (serve_ == nullptr) return;
  if (opts_.serve_linger > 0.0 && !serve_->bridge.shutdown_requested()) {
    os << "[" << experiment_ << "] lingering " << opts_.serve_linger
       << " s on 127.0.0.1:" << serve_->server.port()
       << " (POST /control cmd=shutdown to end early)\n";
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(opts_.serve_linger);
    while (std::chrono::steady_clock::now() < deadline &&
           !serve_->bridge.shutdown_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  serve_->server.stop();
}

std::vector<std::uint64_t> Harness::seeds_for(
    std::vector<std::uint64_t> defaults) const {
  if (opts_.seeds == 0 || opts_.seeds == defaults.size()) return defaults;
  if (opts_.seeds < defaults.size()) {
    defaults.resize(opts_.seeds);
    return defaults;
  }
  // Extend deterministically past the canonical list.
  const std::uint64_t key = fnv1a(experiment_);
  for (std::size_t i = defaults.size(); i < opts_.seeds; ++i) {
    defaults.push_back(sim::mix64(key ^ (0x5eed0000ULL + i)));
  }
  return defaults;
}

void Harness::note_shard_events(const std::vector<std::uint64_t>& events) {
  if (events.empty()) return;
  const std::lock_guard<std::mutex> lock(shard_mutex_);
  if (shard_events_.size() < events.size()) {
    shard_events_.resize(events.size(), 0);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    shard_events_[i] += events[i];
  }
}

std::vector<std::uint64_t> Harness::shard_events() const {
  const std::lock_guard<std::mutex> lock(shard_mutex_);
  return shard_events_;
}

GridResult Harness::run(Grid grid) {
  grid.seeds = seeds_for(std::move(grid.seeds));
  if (opts_.shards > 1) {
    // Sharded run: every cell sees the shard count (trajectories are
    // byte-identical to --shards 1, so this never forks the document).
    auto inner = std::move(grid.task);
    grid.task = [this, inner = std::move(inner)](const TaskContext& ctx) {
      TaskContext cell = ctx;
      cell.shards = opts_.shards;
      return inner(cell);
    };
  }
  const bool serving = opts_.serve_port >= 0;
  const bool want_observability =
      !opts_.trace.empty() || !opts_.metrics.empty() || serving;
  if (want_observability && !trace_cell_assigned_ && !grid.variants.empty() &&
      !grid.seeds.empty()) {
    trace_cell_assigned_ = true;
    trace_bus_ = std::make_unique<sim::TelemetryBus>();
    tracer_ = std::make_unique<sim::Tracer>(*trace_bus_);
    metrics_ = std::make_unique<sim::MetricsRegistry>();
    const std::size_t traced_variant = grid.variants.size() - 1;
    const std::uint64_t traced_seed = grid.seeds.front();
    traced_cell_ = grid.name + "/" + grid.variants[traced_variant] +
                   "/seed " + std::to_string(traced_seed);
    if (serving) start_serving();
    auto inner = std::move(grid.task);
    grid.task = [this, inner = std::move(inner), traced_variant,
                 traced_seed](const TaskContext& ctx) {
      if (ctx.variant == traced_variant && ctx.seed == traced_seed) {
        TaskContext traced = ctx;
        traced.telemetry = trace_bus_.get();
        traced.tracer = tracer_.get();
        traced.metrics = metrics_.get();
        if (serve_ != nullptr) traced.bridge = &serve_->bridge;
        return inner(traced);
      }
      return inner(ctx);
    };
  }

  // Checkpoint / resume / journal wrap — outermost, applied to every cell.
  const std::size_t grid_id = grid_index_++;
  if (store_ != nullptr) {
    store_->add_grid(grid.name, grid.variants, grid.seeds);
  }
  if (resume_store_ != nullptr) {
    if (const std::string err = resume_store_->match(grid_id, grid);
        !err.empty()) {
      std::cerr << "error: --resume " << opts_.resume << ": " << err << "\n";
      std::exit(2);
    }
  }
  if (store_ != nullptr || resume_store_ != nullptr ||
      !replay_.empty() || !world_ckpt_path_.empty()) {
    // The world-snapshot path goes to the same designated cell the tracer
    // uses (last variant, first seed, first grid) so cmd=checkpoint and
    // --serve compose on one cell.
    const bool first_grid = grid_id == 0;
    const std::size_t last_variant =
        grid.variants.empty() ? 0 : grid.variants.size() - 1;
    const std::uint64_t first_seed = grid.seeds.empty() ? 0 : grid.seeds[0];
    auto inner = std::move(grid.task);
    grid.task = [this, inner = std::move(inner), grid_id, first_grid,
                 last_variant, first_seed](const TaskContext& ctx) {
      if (resume_store_ != nullptr) {
        if (const TaskResult* done =
                resume_store_->find(grid_id, ctx.variant, ctx.seed);
            done != nullptr && done->error.empty()) {
          // Completed before the interruption: return the stored output
          // bit-for-bit (and carry it into the new store) instead of
          // re-running the cell.
          if (store_ != nullptr) store_->record(grid_id, *done);
          return TaskOutput{done->metrics, done->note};
        }
      }
      TaskContext cell = ctx;
      cell.control_journal = replay_;
      if (first_grid && ctx.variant == last_variant && ctx.seed == first_seed) {
        cell.checkpoint_path = world_ckpt_path_;
      }
      TaskOutput out = inner(cell);
      if (store_ != nullptr) {
        store_->record(grid_id, TaskResult{ctx.variant, ctx.seed, out.metrics,
                                           out.note, std::string{}, 0.0});
      }
      return out;
    };
  }
  results_.push_back(runner_.run(experiment_, grid));
  return results_.back();
}

Json Harness::document() const {
  return build_document(results_, /*interrupted=*/false);
}

Json Harness::build_document(const std::vector<GridResult>& grids,
                             bool interrupted) const {
  Json doc = Json::object();
  doc["schema"] = 2;
  doc["experiment"] = experiment_;
  Json& meta = doc["meta"] = Json::object();
  if (interrupted) meta["interrupted"] = true;
  meta["git_rev"] = git_rev();
  // Only emitted when set: documents without them stay byte-identical.
  if (!opts_.fault_plan.empty()) meta["fault_plan"] = opts_.fault_plan;
  if (!opts_.scenario.empty()) meta["scenario"] = opts_.scenario;
  // Engine events this process executed: deterministic for a fixed
  // workload and execution path (a resumed or served process runs a
  // different number, which bench_diff --ignore-events-total allows for).
  const std::uint64_t events = sim::Engine::global_executed() - events_at_start_;
  if (!interrupted) meta["events_total"] = static_cast<std::int64_t>(events);
  Json& grid_docs = doc["grids"] = Json::array();
  for (const auto& g : grids) grid_docs.push_back(to_json(g));
  // Failed cells surfaced top-level so CI does not have to walk every
  // grid's results to learn *what* made the exit code non-zero. Absent
  // when everything passed (byte-stability of green documents).
  std::size_t failed = 0;
  for (const auto& g : grids) failed += g.errors();
  if (failed != 0) {
    Json& cells = doc["failed_cells"] = Json::array();
    for (const auto& g : grids) {
      for (const auto& t : g.tasks) {
        if (t.error.empty()) continue;
        Json cell = Json::object();
        cell["grid"] = g.name;
        cell["variant"] = g.variants[t.variant];
        cell["seed"] = static_cast<std::int64_t>(t.seed);
        cell["error"] = t.error;
        cells.push_back(std::move(cell));
      }
    }
  }
  // A partial document has no meaningful timing.
  if (interrupted) return doc;

  // Everything that depends on the clock, the host or the execution mode,
  // and nothing else: the one place that knows the split.
  Json& measured = doc["measured"] = Json::object();
  double wall = 0.0;
  for (const auto& g : grids) wall += g.wall_s;
  measured["wall_clock_s"] = wall;
  measured["events_per_sec"] =
      wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
  measured["peak_rss_mb"] = peak_rss_mb();
  measured["jobs"] = static_cast<std::int64_t>(jobs());
  if (opts_.shards > 1) {
    // Per-shard executed-event totals summed across cells, last entry =
    // the coordinator engine.
    measured["shards"] = static_cast<std::int64_t>(opts_.shards);
    Json& totals = measured["shard_events_total"] = Json::array();
    Json& rates = measured["shard_events_per_sec"] = Json::array();
    for (const std::uint64_t n : shard_events()) {
      totals.push_back(static_cast<std::int64_t>(n));
      rates.push_back(wall > 0.0 ? static_cast<double>(n) / wall : 0.0);
    }
  }
  Json& grid_timing = measured["grids"] = Json::array();
  for (const auto& g : grids) {
    Json timing = Json::object();
    timing["wall_s"] = g.wall_s;
    timing["jobs"] = static_cast<std::int64_t>(g.jobs);
    Json& cell_wall = timing["cell_wall_s"] = Json::array();
    for (const auto& t : g.tasks) cell_wall.push_back(t.wall_s);
    grid_timing.push_back(std::move(timing));
  }
  return doc;
}

int Harness::finish(std::ostream& os) {
  stop_supervisor();
  if (!opts_.checkpoint.empty() && store_ != nullptr) {
    save_store();
    os << "wrote " << opts_.checkpoint << " (" << store_->completed()
       << " completed cells)\n";
  }
  std::size_t failed = 0;
  for (const auto& g : results_) {
    for (const auto& t : g.tasks) {
      if (t.error.empty()) continue;
      ++failed;
      os << "error: " << experiment_ << "/" << g.name << " variant '"
         << g.variants[t.variant] << "' seed " << t.seed << ": " << t.error
         << "\n";
    }
  }
  double wall = 0.0;
  std::size_t cells = 0;
  for (const auto& g : results_) {
    wall += g.wall_s;
    cells += g.tasks.size();
  }
  os << "[" << experiment_ << "] " << cells << " runs in " << wall
     << " s wall-clock on " << jobs() << " job(s)\n";

  int rc = failed != 0 ? 1 : 0;
  if (!opts_.json.empty()) {
    std::ofstream out(opts_.json);
    if (!out) {
      std::cerr << "error: cannot write " << opts_.json << "\n";
      rc = 1;
    } else {
      document().dump(out);
      out << "\n";
      os << "wrote " << opts_.json << "\n";
    }
  }
  if (!opts_.trace.empty()) {
    std::ofstream out(opts_.trace);
    if (!out) {
      std::cerr << "error: cannot write " << opts_.trace << "\n";
      rc = 1;
    } else {
      // A run with no grids still produces a valid, empty document.
      sim::TelemetryBus empty_bus;
      sim::Tracer empty(empty_bus);
      const sim::Tracer& tr = tracer_ ? *tracer_ : empty;
      write_chrome_trace(out, tr);
      os << "wrote " << opts_.trace;
      if (tracer_) {
        os << " (cell " << traced_cell_ << ", " << tr.spans() << " spans, "
           << tr.flows() << " flow points)";
      }
      os << "\n";
    }
  }
  if (!opts_.metrics.empty()) {
    std::ofstream out(opts_.metrics);
    if (!out) {
      std::cerr << "error: cannot write " << opts_.metrics << "\n";
      rc = 1;
    } else {
      sim::MetricsRegistry empty;
      write_metrics_jsonl(out, metrics_ ? *metrics_ : empty);
      os << "wrote " << opts_.metrics;
      if (metrics_) {
        os << " (cell " << traced_cell_ << ", " << metrics_->size()
           << " metrics, " << metrics_->snapshots().size() << " snapshots)";
      }
      os << "\n";
    }
  }
  linger_and_stop(os);
  return rc;
}

int Harness::finish() { return finish(std::cout); }

}  // namespace sa::exp

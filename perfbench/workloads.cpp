#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ckpt/journal.hpp"
#include "ckpt/state.hpp"
#include "clients.hpp"
#include "gen/scenario.hpp"
#include "gen/spec.hpp"
#include "probe.hpp"
#include "serve/bridge.hpp"
#include "serve/server.hpp"
#include "shard/world.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"

namespace perfbench {
namespace {

using namespace sa;
using Clock = std::chrono::steady_clock;
using Summary = std::vector<std::pair<std::string, double>>;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- Workload parameters --------------------------------------------------------

constexpr double kCityHorizon = 1200.0;
constexpr double kCheckpointEvery = 100.0;  // sim-s between saves
constexpr double kServedHorizon = 600.0;
constexpr double kPublishPeriod = 1.0;  // sim-s between bridge publishes
constexpr std::size_t kMetroShards = 2;
constexpr double kControlRateHz = 50.0;
constexpr int kExtraSetups = 8;  // unrun builds per city world

/// The 1/8-scale bench_shard city: 12.8k cameras, 125k flows.
constexpr const char* kMetroSpec =
    "world:horizon=40,exchange=20;"
    "cameras:count=128,objects=24,clusters=4,districts=100,epoch=10;"
    "cpn:rows=4,cols=6,shortcuts=4,flows=500,grids=250;"
    "cloud:nodes=32;multicore:nodes=4;faults";

std::string city_spec(double horizon) {
  std::ostringstream s;
  s << "world:horizon=" << horizon << ";" << gen::ScenarioSpec::city_spec();
  return s.str();
}

// World seeds come from a pool with committed reference fingerprints
// (kFirstWorldSeed onward), and a run measures whole passes over its
// workload's pool, so every run times the same worlds; the run seed picks
// where each pass starts. World seed dominates run time (the city's fault
// chains differ by up to 1.6x between seeds), so a run that sampled part of
// the pool would read its sample, not the program.
//
// The work in a run is fixed by --seconds, not by the clock: an untraced
// run makes seconds / pass_s passes (at least one), where pass_s is what a
// pass took on the reference host (README.md). A slower program then takes
// longer rather than measuring fewer worlds. A traced run makes one pass.
constexpr std::uint64_t kFirstWorldSeed = 61;

struct Pool {
  std::uint64_t worlds;
  double pass_s;
};
constexpr Pool kCityPool{3, 6.0};
constexpr Pool kMetroPool{6, 6.0};

// -- Phase measurement --------------------------------------------------------------

AllocCounts operator-(AllocCounts a, AllocCounts b) {
  return {a.count - b.count, a.bytes - b.bytes};
}

struct Phases {
  double setup_s = 0.0, run_s = 0.0, teardown_s = 0.0;
  // Traced worlds only:
  AllocCounts setup_alloc, run_alloc, teardown_alloc;
  double setup_mb = 0.0, run_growth_mb = 0.0;
};

/// Builds a world, runs it and destroys it, timing each phase. `run`
/// returns the seconds to charge as run time (the city leaves its
/// checkpoint saves out); `inspect` reads results after the run, untimed
/// and uncounted. A traced world also counts allocations and samples RSS
/// around each phase, starting from a trimmed heap.
template <class Build, class Run, class Inspect>
Phases measure(bool traced, Build&& build, Run&& run, Inspect&& inspect) {
  Phases p;
  double rss0 = 0.0, rss1 = 0.0, rss2 = 0.0;
  if (traced) {
    trim_heap();
    rss0 = rss_mb();
  }
  set_alloc_counting(traced);
  const AllocCounts a0 = alloc_counts();
  auto t0 = Clock::now();
  auto world = build();
  p.setup_s = since(t0);
  const AllocCounts a1 = alloc_counts();
  if (traced) rss1 = rss_mb();
  p.run_s = run(*world);
  const AllocCounts a2 = alloc_counts();
  if (traced) rss2 = rss_mb();
  set_alloc_counting(false);
  inspect(*world);
  set_alloc_counting(traced);
  const AllocCounts a3 = alloc_counts();
  t0 = Clock::now();
  world.reset();
  p.teardown_s = since(t0);
  const AllocCounts a4 = alloc_counts();
  set_alloc_counting(false);
  p.setup_alloc = a1 - a0;
  p.run_alloc = a2 - a1;
  p.teardown_alloc = a4 - a3;
  p.setup_mb = rss1 - rss0;
  p.run_growth_mb = rss2 - rss1;
  return p;
}

/// Wall seconds `f` takes.
template <class F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return since(t0);
}

// -- Per-run accumulation -----------------------------------------------------------

/// Everything one run collects, reduced to metrics at the end.
class Session {
 public:
  Session(const RunArgs& args, Pool pool)
      : args_(args),
        pool_(pool.worlds),
        passes_(args.trace ? 1
                           : std::max<std::uint64_t>(
                                 1, static_cast<std::uint64_t>(
                                        args.seconds / pool.pass_s))) {}

  /// The next world's seed, or false once the run's passes are done.
  bool next_world(std::uint64_t& seed) {
    if (worlds_ == pool_ * passes_) return false;
    seed = kFirstWorldSeed + (args_.seed + worlds_) % pool_;
    ++worlds_;
    return true;
  }

  /// Checks one world's summary against the committed fingerprint of
  /// `ref_workload` at `seed`.
  void check(const std::string& ref_workload, std::uint64_t seed,
             const Summary& summary, const char* what) {
    ++out_.attempted;
    ++out_.worlds;
    const std::string got = fingerprint(summary);
    const std::string* want =
        args_.refs != nullptr ? args_.refs->find(ref_workload, seed) : nullptr;
    if (want == nullptr || *want != got) {
      ++out_.failed;
      out_.mismatches.push_back(std::string(what) + " seed " +
                                std::to_string(seed) + ": got " + got +
                                ", reference " +
                                (want != nullptr ? *want : "missing"));
    }
  }
  void count_ops(std::uint64_t attempted, std::uint64_t failed) {
    out_.attempted += attempted;
    out_.failed += failed;
  }

  /// An untraced world of the workload under test (end-to-end samples).
  void add_world(std::uint64_t seed, const Phases& p) {
    setup_[seed].push_back(p.setup_s);
    run_[seed].push_back(p.run_s);
    teardown_[seed].push_back(p.teardown_s);
  }
  /// Extra set-up samples: builds and destroys `n` more worlds without
  /// running them (the city's and the served world's set-up is well under
  /// a millisecond, too short to read steadily from one sample a world).
  template <class Build>
  void add_setups(std::uint64_t seed, Build&& build, int n) {
    for (int i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      auto world = build();
      setup_[seed].push_back(since(t0));
    }
  }
  /// An untraced world that is the twin of the next traced one.
  void add_baseline(const Phases& p, std::uint64_t events) {
    baseline_run_.push_back(p.run_s);
    ns_per_event_.push_back(p.run_s * 1e9 / static_cast<double>(events));
  }
  /// A traced world and the profile its engine hook recorded.
  void add_traced(const Phases& p, const EngineProfile& prof) {
    traced_run_.push_back(p.run_s);
    profile_.merge(prof);
    events_.push_back(static_cast<double>(prof.total_events()));
    alloc_setup_.push_back(static_cast<double>(p.setup_alloc.count));
    alloc_run_.push_back(static_cast<double>(p.run_alloc.count));
    alloc_run_bytes_.push_back(static_cast<double>(p.run_alloc.bytes));
    alloc_teardown_.push_back(static_cast<double>(p.teardown_alloc.count));
    mem_setup_.push_back(p.setup_mb);
    mem_growth_.push_back(p.run_growth_mb);
  }

  /// The profile of a traced served world: the only source of the
  /// serve.publish class, which the run's own worlds never schedule.
  void add_publish(const EngineProfile& prof) {
    publish_.merge(prof);
    ++publish_worlds_;
  }

  void layer(const std::string& name, double value) { layer_[name] = value; }
  void figure(const std::string& name, double value, const char* unit) {
    out_.figures.push_back({name, value, unit});
  }

  [[nodiscard]] Outcome finish();

 private:
  RunArgs args_;
  std::uint64_t pool_;
  std::uint64_t passes_;
  std::uint64_t worlds_ = 0;
  Outcome out_;

  /// End-to-end samples keyed by world seed.
  std::map<std::uint64_t, std::vector<double>> setup_, run_, teardown_;
  std::vector<double> baseline_run_, traced_run_, ns_per_event_, events_;
  std::vector<double> alloc_setup_, alloc_run_, alloc_run_bytes_,
      alloc_teardown_, mem_setup_, mem_growth_;
  EngineProfile profile_;
  EngineProfile publish_;
  std::size_t publish_worlds_ = 0;
  std::map<std::string, double> layer_;
};

/// An end-to-end phase time: each world's best time over the run's
/// passes, averaged over the pool. Interference from other processes only
/// ever adds time, so the best of a world's passes is its steadiest
/// reading; worlds of different seeds differ by design, so one statistic
/// across all samples would jump between the seeds' clusters.
double best_pass_mean(const std::map<std::uint64_t, std::vector<double>>& by_seed) {
  if (by_seed.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [seed, samples] : by_seed) {
    sum += *std::min_element(samples.begin(), samples.end());
  }
  return sum / static_cast<double>(by_seed.size());
}

/// The per-layer metrics every traced run reports, in output order. A
/// layer the workload never enters reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v;
    for (std::size_t c = 0; c + 1 < kEventClasses; ++c) {
      const std::string n = class_name(static_cast<EventClass>(c));
      v.emplace_back(n + ".events", "count");
      v.emplace_back(n + ".busy_s", "s");
      v.emplace_back(n + ".p99_us", "us");
    }
    const std::pair<const char*, const char*> rest[] = {
        {"sim.events", "count"},
        {"sim.ns_per_event", "ns"},
        {"sim.busy_frac", "frac"},
        {"sim.hook_overhead_frac", "frac"},
        {"shard.lag_s", "s"},
        {"shard.lag_frac", "frac"},
        {"shard.barriers", "count"},
        {"shard.event_imbalance", "ratio"},
        {"alloc.setup_count", "count"},
        {"alloc.run_count", "count"},
        {"alloc.run_bytes", "bytes"},
        {"alloc.teardown_count", "count"},
        {"mem.setup_mb", "MB"},
        {"mem.run_growth_mb", "MB"},
        {"ckpt.image_bytes", "bytes"},
        {"ckpt_pause_ms", "ms"},
        {"serve.metrics_bytes", "bytes"},
        {"serve.status_bytes", "bytes"},
        {"serve.queue_wait_p99_ms", "ms"},
        {"metrics_p50_ms", "ms"},
        {"metrics_p99_ms", "ms"},
        {"status_p50_ms", "ms"},
        {"status_p99_ms", "ms"},
        {"control_p50_ms", "ms"},
        {"control_p99_ms", "ms"},
        {"loadgen.late_ms", "ms"},
    };
    for (const auto& [n, u] : rest) v.emplace_back(n, u);
    return v;
  }();
  return names;
}

Outcome Session::finish() {
  out_.end_to_end = {
      {"setup_s", best_pass_mean(setup_), "s"},
      {"run_s", best_pass_mean(run_), "s"},
      {"teardown_s", best_pass_mean(teardown_), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  if (args_.trace) {
    for (std::size_t c = 0; c + 1 < kEventClasses; ++c) {
      const auto k = static_cast<EventClass>(c);
      const bool publish = k == EventClass::Publish;
      const EngineProfile& prof = publish ? publish_ : profile_;
      const double worlds = std::max<double>(
          1.0, publish ? publish_worlds_ : traced_run_.size());
      const std::string n = class_name(k);
      layer(n + ".events", static_cast<double>(prof.events(k)) / worlds);
      layer(n + ".busy_s", prof.busy_s(k) / worlds);
      layer(n + ".p99_us", prof.p99_us(k));
    }
    double traced_total = 0.0;
    for (const double r : traced_run_) traced_total += r;
    layer("sim.events", median(events_));
    layer("sim.ns_per_event", median(ns_per_event_));
    layer("sim.busy_frac",
          traced_total > 0.0 ? profile_.total_busy_s() / traced_total : 0.0);
    const double base = median(baseline_run_);
    layer("sim.hook_overhead_frac",
          base > 0.0 ? median(traced_run_) / base - 1.0 : 0.0);
    layer("alloc.setup_count", median(alloc_setup_));
    layer("alloc.run_count", median(alloc_run_));
    layer("alloc.run_bytes", median(alloc_run_bytes_));
    layer("alloc.teardown_count", median(alloc_teardown_));
    layer("mem.setup_mb", median(mem_setup_));
    layer("mem.run_growth_mb", median(mem_growth_));
    for (const auto& [name, unit] : layer_metrics()) {
      const auto it = layer_.find(name);
      out_.per_layer.push_back(
          {name, it != layer_.end() ? it->second : 0.0, unit});
    }
  }
  const double attempted = static_cast<double>(out_.attempted);
  out_.figures.push_back(
      {"failed_frac",
       attempted > 0.0 ? static_cast<double>(out_.failed) / attempted : 0.0,
       "frac"});
  return std::move(out_);
}

/// Hooks `engine` so every executed event lands in `prof`.
void hook(sim::Engine& engine, EngineProfile& prof) {
  engine.set_profile_hook(
      [&prof](sim::Time, int order, double wall_s) { prof.record(order, wall_s); });
}

// -- served ---------------------------------------------------------------------------

serve::SimBridge::Options bridge_options() {
  serve::SimBridge::Options opts;
  opts.publish_period = kPublishPeriod;
  return opts;
}

/// The city behind a live endpoint, wired as the experiment harness's
/// --serve wires a traced cell: telemetry bus, metrics registry, control
/// journal, every agent and the fault injector on the bridge.
struct ServedWorld {
  sim::TelemetryBus bus;
  sim::MetricsRegistry registry;
  ckpt::ControlJournal journal;
  serve::SimBridge bridge{bridge_options()};
  serve::Server server;
  std::unique_ptr<gen::Scenario> city;  // destroyed first, after stop()

  ServedWorld(const gen::ScenarioSpec& spec, std::uint64_t seed) {
    gen::Scenario::Options opts;
    opts.telemetry = &bus;
    opts.metrics = &registry;
    city = std::make_unique<gen::Scenario>(spec, seed, opts);
    bridge.set_metrics(&registry);
    bridge.set_telemetry(&bus);
    bridge.set_journal(&journal);
    for (core::SelfAwareAgent* a : city->agents()) bridge.add_agent(a);
    bridge.set_injector(&city->injector());
    bridge.attach(city->engine());
    bridge.install(server);
    if (!server.start()) {
      throw std::runtime_error("serve: " + server.error());
    }
  }
  ~ServedWorld() { server.stop(); }
  ServedWorld(const ServedWorld&) = delete;
  ServedWorld& operator=(const ServedWorld&) = delete;
};

struct ServedSamples {
  RouteSamples metrics, status, control;
  std::vector<double> queue_wait_p99_s;

  void add(const Clients& c) {
    append(metrics, c.metrics());
    append(status, c.status());
    append(control, c.control());
  }

 private:
  static void append(RouteSamples& to, const RouteSamples& from) {
    to.latency_s.insert(to.latency_s.end(), from.latency_s.begin(),
                        from.latency_s.end());
    to.late_s.insert(to.late_s.end(), from.late_s.begin(), from.late_s.end());
    to.attempted += from.attempted;
    to.failed += from.failed;
    to.body_bytes += from.body_bytes;
  }
};

/// The serve layer's per-layer metrics, for the city's traced run: one
/// pass over the pool with the city at h=600 behind a live endpoint, each
/// world untraced (client latencies) and then traced (the publish class).
void measure_served(Session& s, const RunArgs& args) {
  const gen::ScenarioSpec spec =
      gen::ScenarioSpec::parse(city_spec(kServedHorizon));
  ServedSamples load;
  auto one = [&](std::uint64_t seed, EngineProfile* prof) {
    measure(
        false,
        [&] {
          auto w = std::make_unique<ServedWorld>(spec, seed);
          if (prof != nullptr) hook(w->city->engine(), *prof);
          return w;
        },
        [&](ServedWorld& w) {
          Clients clients(w.server.port(), kControlRateHz);
          clients.start();
          const double run_s = timed([&] { w.city->run(); });
          clients.stop();
          if (prof == nullptr) load.add(clients);
          return run_s;
        },
        [&](ServedWorld& w) {
          load.queue_wait_p99_s.push_back(
              w.server.stats().snapshot().queue_wait.quantile(0.99));
          s.check("served", seed, w.city->summary(), "served");
        });
  };
  for (std::uint64_t i = 0; i < kCityPool.worlds; ++i) {
    const std::uint64_t seed =
        kFirstWorldSeed + (args.seed + i) % kCityPool.worlds;
    one(seed, nullptr);
    EngineProfile prof;
    one(seed, &prof);
    s.add_publish(prof);
  }
  for (const RouteSamples* r : {&load.metrics, &load.status, &load.control}) {
    s.count_ops(r->attempted, r->failed);
  }
  auto per_request = [](const RouteSamples& r) {
    const auto ok = r.latency_s.size();
    return ok > 0 ? static_cast<double>(r.body_bytes) / static_cast<double>(ok)
                  : 0.0;
  };
  s.layer("serve.metrics_bytes", per_request(load.metrics));
  s.layer("serve.status_bytes", per_request(load.status));
  s.layer("serve.queue_wait_p99_ms", median(load.queue_wait_p99_s) * 1e3);
  s.layer("loadgen.late_ms", quantile(load.control.late_s, 0.99) * 1e3);
  const std::pair<const char*, const RouteSamples*> routes[] = {
      {"metrics", &load.metrics},
      {"status", &load.status},
      {"control", &load.control}};
  for (const auto& [name, r] : routes) {
    s.layer(std::string(name) + "_p50_ms", quantile(r->latency_s, 0.50) * 1e3);
    s.layer(std::string(name) + "_p99_ms", quantile(r->latency_s, 0.99) * 1e3);
    s.figure(std::string(name) + "_requests",
             static_cast<double>(r->latency_s.size()), "count");
    s.figure(std::string(name) + "_failed", static_cast<double>(r->failed),
             "count");
  }
}

// -- city -----------------------------------------------------------------------------

struct CityWorld {
  gen::Scenario city;
  ckpt::WorldCheckpoint wc;

  CityWorld(const gen::ScenarioSpec& spec, std::uint64_t seed)
      : city(spec, seed) {
    city.register_checkpoint(wc);
  }
};

struct CheckpointSamples {
  std::vector<double> pause_s;
  std::vector<double> image_bytes;
  std::uint64_t attempted = 0, failed = 0;
};

/// Runs the city to its horizon in kCheckpointEvery segments, saving an
/// in-memory checkpoint between segments. Returns the run time without the
/// saves; saves are neither timed as run nor counted as run allocations.
double run_city(CityWorld& w, const std::string& recipe, std::uint64_t seed,
                bool traced, CheckpointSamples& ck) {
  double run_s = 0.0;
  for (double t = kCheckpointEvery;; t += kCheckpointEvery) {
    const double stop = std::min(t, kCityHorizon);
    run_s += timed([&] { w.city.run_until(stop); });
    if (stop >= kCityHorizon) break;
    set_alloc_counting(false);
    ckpt::WorldCheckpoint::Meta meta;
    meta.t = stop;
    meta.seed = seed;
    meta.recipe = recipe;
    std::string image;
    ckpt::Status st;
    ck.pause_s.push_back(timed([&] { st = w.wc.save(meta, image); }));
    ck.image_bytes.push_back(static_cast<double>(image.size()));
    ++ck.attempted;
    if (!st.ok()) ++ck.failed;
    set_alloc_counting(traced);
  }
  return run_s;
}

Outcome run_city_workload(const RunArgs& args) {
  const std::string recipe = city_spec(kCityHorizon);
  const gen::ScenarioSpec spec = gen::ScenarioSpec::parse(recipe);
  Session s(args, kCityPool);
  CheckpointSamples ck;
  auto one = [&](std::uint64_t seed, bool traced, EngineProfile* prof) {
    std::uint64_t events = 0;
    const Phases p = measure(
        traced,
        [&] {
          auto w = std::make_unique<CityWorld>(spec, seed);
          if (prof != nullptr) hook(w->city.engine(), *prof);
          return w;
        },
        [&](CityWorld& w) { return run_city(w, recipe, seed, traced, ck); },
        [&](CityWorld& w) {
          events = w.city.engine().executed();
          s.check("city", seed, w.city.summary(), "city");
        });
    return std::make_pair(p, events);
  };
  for (std::uint64_t seed = 0; s.next_world(seed);) {
    if (!args.trace) {
      s.add_world(seed, one(seed, false, nullptr).first);
      s.add_setups(seed,
                   [&] { return std::make_unique<CityWorld>(spec, seed); },
                   kExtraSetups);
      continue;
    }
    const auto [base, events] = one(seed, false, nullptr);
    s.add_baseline(base, events);
    EngineProfile prof;
    s.add_traced(one(seed, true, &prof).first, prof);
  }
  s.count_ops(ck.attempted, ck.failed);
  if (args.trace) measure_served(s, args);
  s.layer("ckpt.image_bytes", median(ck.image_bytes));
  s.layer("ckpt_pause_ms", median(ck.pause_s) * 1e3);
  s.figure("ckpt_pause_ms", median(ck.pause_s) * 1e3, "ms");
  s.figure("ckpt_pause_p99_ms", quantile(ck.pause_s, 0.99) * 1e3, "ms");
  s.figure("ckpt_saves", static_cast<double>(ck.pause_s.size()), "count");
  return s.finish();
}

// -- metro ----------------------------------------------------------------------------

struct ShardSamples {
  std::vector<double> lag_s, lag_frac, barriers, imbalance;
};

Outcome run_metro_workload(const RunArgs& args) {
  const gen::ScenarioSpec spec = gen::ScenarioSpec::parse(kMetroSpec);
  shard::ShardedWorld::validate(spec, {.shards = kMetroShards});
  Session s(args, kMetroPool);
  ShardSamples sh;

  auto sharded = [&](std::uint64_t seed) {
    std::vector<std::uint64_t> per_shard;
    double lag = 0.0;
    const Phases p = measure(
        false,
        [&] {
          return std::make_unique<shard::ShardedWorld>(
              spec, seed,
              shard::ShardedWorld::Options{.shards = kMetroShards});
        },
        [&](shard::ShardedWorld& w) { return timed([&] { w.run(); }); },
        [&](shard::ShardedWorld& w) {
          per_shard = w.shard_events();
          lag = w.lag_seconds();
          s.check("metro", seed, w.world().summary(), "metro sharded");
        });
    // Shard engines first, the coordinator last; each coordinator event is
    // one barrier.
    double max_events = 0.0, sum_events = 0.0;
    for (std::size_t i = 0; i + 1 < per_shard.size(); ++i) {
      max_events = std::max(max_events, static_cast<double>(per_shard[i]));
      sum_events += static_cast<double>(per_shard[i]);
    }
    const double shards = static_cast<double>(per_shard.size() - 1);
    sh.lag_s.push_back(lag);
    sh.lag_frac.push_back(lag / p.run_s);
    sh.barriers.push_back(static_cast<double>(per_shard.back()));
    sh.imbalance.push_back(sum_events > 0.0 ? max_events * shards / sum_events
                                            : 0.0);
    return p;
  };
  auto single = [&](std::uint64_t seed, bool traced, EngineProfile* prof) {
    std::uint64_t events = 0;
    const Phases p = measure(
        traced,
        [&] {
          auto w = std::make_unique<gen::Scenario>(spec, seed);
          if (prof != nullptr) hook(w->engine(), *prof);
          return w;
        },
        [&](gen::Scenario& w) { return timed([&] { w.run(); }); },
        [&](gen::Scenario& w) {
          events = w.engine().executed();
          s.check("metro", seed, w.summary(), "metro one-engine");
        });
    return std::make_pair(p, events);
  };

  for (std::uint64_t seed = 0; s.next_world(seed);) {
    s.add_world(seed, sharded(seed));
    if (!args.trace) continue;
    // The profile hook sees only the engine it is set on, so the traced
    // world runs unsharded, against an untraced unsharded twin.
    const auto [base, events] = single(seed, false, nullptr);
    s.add_baseline(base, events);
    EngineProfile prof;
    s.add_traced(single(seed, true, &prof).first, prof);
  }
  s.layer("shard.lag_s", median(sh.lag_s));
  s.layer("shard.lag_frac", median(sh.lag_frac));
  s.layer("shard.barriers", median(sh.barriers));
  s.layer("shard.event_imbalance", median(sh.imbalance));
  s.figure("shard.lag_s", median(sh.lag_s), "s");
  s.figure("shard.lag_frac", median(sh.lag_frac), "frac");
  return s.finish();
}

}  // namespace

bool References::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string workload, fp;
    std::uint64_t seed = 0;
    if (row >> workload >> seed >> fp) {
      refs_[workload + " " + std::to_string(seed)] = fp;
    }
  }
  return true;
}

const std::string* References::find(const std::string& workload,
                                    std::uint64_t world_seed) const {
  const auto it = refs_.find(workload + " " + std::to_string(world_seed));
  return it != refs_.end() ? &it->second : nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"city", "metro"};
  return names;
}

Outcome run_workload(const RunArgs& args) {
  if (args.workload == "city") return run_city_workload(args);
  if (args.workload == "metro") return run_metro_workload(args);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

void write_references(std::ostream& out) {
  // Plain single-engine, unserved, uncheckpointed runs: the sharded,
  // served and checkpointed worlds must reproduce these bytes.
  struct Recipe {
    const char* workload;
    std::string spec;
    std::uint64_t pool;
  };
  const Recipe recipes[] = {
      {"city", city_spec(kCityHorizon), kCityPool.worlds},
      {"metro", kMetroSpec, kMetroPool.worlds},
      {"served", city_spec(kServedHorizon), kCityPool.worlds}};
  out << "# workload world_seed fingerprint (perfbench --write-references)\n";
  for (const auto& [workload, recipe, pool] : recipes) {
    const gen::ScenarioSpec spec = gen::ScenarioSpec::parse(recipe);
    for (std::uint64_t i = 0; i < pool; ++i) {
      const std::uint64_t seed = kFirstWorldSeed + i;
      gen::Scenario world(spec, seed);
      world.run();
      out << workload << " " << seed << " " << fingerprint(world.summary())
          << "\n"
          << std::flush;
    }
  }
}

}  // namespace perfbench

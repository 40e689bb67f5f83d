#include "shard/world.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

namespace sa::shard {

/// One thread per shard, parked on a generation-counted barrier. The
/// coordinator publishes a Job and bumps the generation; every worker
/// drives its own engine to the job's bound and reports done. All engine
/// access is ordered by the pool mutex (release before work, acquire
/// after), so the shard suites run clean under TSan by construction.
struct ShardedWorld::Pool {
  std::mutex m;
  std::condition_variable work_cv, done_cv;
  Job job;
  std::uint64_t generation = 0;
  std::size_t done = 0;
  bool stop = false;
  std::vector<std::thread> threads;
};

void ShardedWorld::validate(const gen::ScenarioSpec& spec,
                            const Options& opts) {
  if (opts.shards < 1) {
    throw ShardError("shard: shard count must be >= 1");
  }
  if (opts.shards == 1) return;  // no coordinator/shard split to guard
  if (spec.cpn.enabled) {
    // The coupling window (coordinator, order 0) must out-period every
    // shard-local order-0 stream (substrate steps), so the monolithic
    // "longer period armed earlier, runs first" tie-break is exactly what
    // the barrier protocol reproduces at coincident instants.
    const double window = spec.cloud.enabled ? spec.cloud.epoch_s
                                             : 10.0 * spec.world.step_s;
    if (!(window > spec.world.step_s)) {
      throw ShardError(
          "shard: coupling window (cloud epoch) must be strictly longer "
          "than the world step for deterministic sharding");
    }
  }
  if (spec.multicore.enabled && spec.cloud.enabled &&
      spec.multicore.epoch_s > spec.cloud.epoch_s) {
    // Same dominance argument at order 1: the autoscaler (coordinator)
    // must never be the shorter-period stream at a coincidence with the
    // shard-local manager/degradation epochs. Equality is fine — the
    // autoscaler registers before every manager, so it holds the older
    // sequence number in the monolithic engine too.
    throw ShardError(
        "shard: multicore epoch must not exceed the cloud epoch for "
        "deterministic sharding");
  }
}

ShardedWorld::ShardedWorld(const gen::ScenarioSpec& spec,
                           std::uint64_t run_seed, Options opts) {
  validate(spec, opts);
  part_ = partition_world(spec, opts.shards);
  gen::Scenario::Options& sopts = opts.scenario;
  if (opts.shards == 1) {
    sopts.placement = nullptr;
    world_ = std::make_unique<gen::Scenario>(spec, run_seed, sopts);
    return;
  }

  shard_engines_.reserve(opts.shards);
  outboxes_.reserve(opts.shards);
  for (std::size_t s = 0; s < opts.shards; ++s) {
    shard_engines_.push_back(std::make_unique<sim::Engine>());
    outboxes_.push_back(std::make_unique<Outbox>());
  }

  placement_.district_engines.reserve(part_.district_shard.size());
  for (std::size_t shard : part_.district_shard) {
    placement_.district_engines.push_back(shard_engines_[shard].get());
  }
  placement_.grid_engines.reserve(part_.grid_shard.size());
  for (std::size_t shard : part_.grid_shard) {
    placement_.grid_engines.push_back(shard_engines_[shard].get());
  }
  placement_.edge_engines.reserve(part_.edge_shard.size());
  for (std::size_t shard : part_.edge_shard) {
    placement_.edge_engines.push_back(shard_engines_[shard].get());
  }
  placement_.post_reports = [this](std::size_t district, double t,
                                   double amount) {
    // Runs on the shard thread that owns `district`; its outbox is
    // single-producer by construction.
    outboxes_[part_.district_shard[district]]->post(
        t, /*order=*/0, /*origin=*/district, district, amount);
  };

  sopts.tracer = nullptr;   // shard-owned agents run off-thread: no tracer
  sopts.metrics = nullptr;  // ladder timings would be written off-thread
  sopts.placement = &placement_;
  world_ = std::make_unique<gen::Scenario>(spec, run_seed, sopts);

  pool_ = std::make_unique<Pool>();
  pool_->threads.reserve(opts.shards);
  for (std::size_t s = 0; s < opts.shards; ++s) {
    pool_->threads.emplace_back([this, s] { worker_loop(s); });
  }
}

ShardedWorld::~ShardedWorld() {
  if (pool_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(pool_->m);
    pool_->stop = true;
  }
  pool_->work_cv.notify_all();
  for (std::thread& th : pool_->threads) th.join();
}

void ShardedWorld::worker_loop(std::size_t shard) {
  sim::Engine& engine = *shard_engines_[shard];
  std::uint64_t seen = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(pool_->m);
      pool_->work_cv.wait(lock, [&] {
        return pool_->stop || pool_->generation != seen;
      });
      if (pool_->stop) return;
      seen = pool_->generation;
      job = pool_->job;
    }
    if (job.before) {
      engine.run_until_before(job.t, job.order);
    } else {
      engine.run_until(job.t);
    }
    {
      std::lock_guard<std::mutex> lock(pool_->m);
      ++pool_->done;
    }
    pool_->done_cv.notify_one();
  }
}

void ShardedWorld::release_and_wait(const Job& job) {
  const auto wall0 = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(pool_->m);
    pool_->job = job;
    pool_->done = 0;
    ++pool_->generation;
  }
  pool_->work_cv.notify_all();
  {
    std::unique_lock<std::mutex> lock(pool_->m);
    pool_->done_cv.wait(lock,
                        [&] { return pool_->done == pool_->threads.size(); });
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall0;
  lag_seconds_ += wall.count();
}

void ShardedWorld::apply_mailboxes() {
  std::vector<std::vector<RemoteEvent>> drained;
  drained.reserve(outboxes_.size());
  bool any = false;
  for (auto& outbox : outboxes_) {
    if (!outbox->empty()) any = true;
    drained.push_back(outbox->drain());
  }
  if (!any) return;
  for (const RemoteEvent& ev : merge_remote(std::move(drained))) {
    world_->apply_pending(ev.district, ev.amount);
  }
}

void ShardedWorld::pump(double horizon) {
  sim::Engine& coordinator = world_->engine();
  double t = 0.0;
  int order = 0;
  while (coordinator.peek_next(t, order) && t <= horizon) {
    // Lookahead window: nothing cross-shard can happen strictly before
    // (t, order), so every shard may drain up to it in parallel.
    release_and_wait(Job{t, order, /*before=*/true});
    apply_mailboxes();
    coordinator.step();
  }
  // No coordinator event remains at or before the horizon: the shards'
  // leftover events all sort after every coordinator event. Let them run
  // out, then advance the coordinator clock.
  release_and_wait(Job{horizon, 0, /*before=*/false});
  apply_mailboxes();
  coordinator.run_until(horizon);
}

void ShardedWorld::run() { run_until(world_->spec().world.horizon); }

void ShardedWorld::run_until(double t) {
  if (pool_ == nullptr) {
    world_->run_until(t);
  } else {
    pump(t);
  }
}

std::vector<std::uint64_t> ShardedWorld::shard_events() const {
  std::vector<std::uint64_t> out;
  out.reserve(shard_engines_.size() + 1);
  for (const auto& engine : shard_engines_) {
    out.push_back(engine->executed());
  }
  out.push_back(world_->engine().executed());
  return out;
}

}  // namespace sa::shard

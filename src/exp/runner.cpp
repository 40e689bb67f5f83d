#include "exp/runner.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace sa::exp {

const TaskResult& GridResult::at(std::size_t variant,
                                 std::size_t seed_index) const {
  if (variant >= variants.size() || seed_index >= seeds.size()) {
    throw std::out_of_range("GridResult::at: cell out of range");
  }
  return tasks[variant * seeds.size() + seed_index];
}

std::size_t GridResult::errors() const noexcept {
  std::size_t n = 0;
  for (const auto& t : tasks) n += !t.error.empty();
  return n;
}

Aggregate GridResult::aggregate(std::size_t variant) const {
  Aggregate agg;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const auto& t = at(variant, s);
    if (t.error.empty()) agg.add(t.metrics);
  }
  return agg;
}

sim::RunningStats GridResult::stats(std::size_t variant,
                                    const std::string& metric) const {
  sim::RunningStats out;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const auto& t = at(variant, s);
    if (!t.error.empty()) continue;
    for (const auto& [name, value] : t.metrics) {
      if (name == metric) out.add(value);
    }
  }
  return out;
}

double GridResult::mean(std::size_t variant, const std::string& metric) const {
  return stats(variant, metric).mean();
}

double GridResult::sum(std::size_t variant, const std::string& metric) const {
  return stats(variant, metric).sum();
}

const std::string& GridResult::note(std::size_t variant) const {
  static const std::string kEmpty;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const auto& t = at(variant, s);
    if (!t.note.empty()) return t.note;
  }
  return kEmpty;
}

Runner::Runner(unsigned jobs)
    : jobs_(jobs != 0 ? jobs
                      : std::max(1u, std::thread::hardware_concurrency())) {}

GridResult Runner::run(std::string_view experiment, const Grid& grid) const {
  if (!grid.task) throw std::invalid_argument("Runner::run: grid has no task");
  GridResult out;
  out.experiment = std::string(experiment);
  out.name = grid.name;
  out.variants = grid.variants;
  out.seeds = grid.seeds;

  const std::size_t cells = grid.variants.size() * grid.seeds.size();
  out.tasks.resize(cells);
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, cells));
  out.jobs = std::max(1u, workers);

  const auto grid_start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> cursor{0};

  auto run_cell = [&](std::size_t i) {
    const std::size_t variant = i / grid.seeds.size();
    const std::size_t seed_index = i % grid.seeds.size();
    TaskResult& slot = out.tasks[i];
    slot.variant = variant;
    slot.seed = grid.seeds[seed_index];
    TaskContext ctx;
    ctx.experiment = experiment;
    ctx.variant_name = grid.variants[variant];
    ctx.variant = variant;
    ctx.seed = slot.seed;
    ctx.stream = stream_of(experiment, grid.variants[variant], slot.seed);
    const auto start = std::chrono::steady_clock::now();
    try {
      TaskOutput o = grid.task(ctx);
      slot.metrics = std::move(o.metrics);
      slot.note = std::move(o.note);
      slot.measured = std::move(o.measured);
    } catch (const std::exception& e) {
      slot.error = e.what();
      if (slot.error.empty()) slot.error = "exception";
    } catch (...) {
      slot.error = "unknown exception";
    }
    slot.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  };

  auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= cells) return;
      run_cell(i);
    }
  };

  if (workers <= 1) {
    // Run inline: --jobs 1 is the reference serial execution.
    for (std::size_t i = 0; i < cells; ++i) run_cell(i);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             grid_start)
                   .count();
  return out;
}

}  // namespace sa::exp

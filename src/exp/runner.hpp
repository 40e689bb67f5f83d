// Parallel experiment runner: fans a Grid's seed × variant cells out
// across a pool of worker threads.
//
// Scheduling is work-stealing over a shared atomic cursor: each worker
// repeatedly claims the next unclaimed cell and evaluates it into a
// pre-sized slot, so no locks are held while tasks run and the result
// order is always the deterministic variant-major grid order, whatever
// the execution interleaving was. A task that throws records its error
// in its own slot; the remaining cells still run to completion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/grid.hpp"

namespace sa::exp {

/// One evaluated grid cell.
struct TaskResult {
  std::size_t variant = 0;
  std::uint64_t seed = 0;
  Metrics metrics;
  std::string note;
  std::string error;    ///< non-empty iff the task threw
  double wall_s = 0.0;  ///< task wall-clock (excluded from determinism)
  Metrics measured;     ///< TaskOutput::measured (excluded likewise)
};

/// All cells of one grid, in variant-major order, plus aggregation helpers.
struct GridResult {
  std::string experiment;
  std::string name;
  std::vector<std::string> variants;
  std::vector<std::uint64_t> seeds;
  std::vector<TaskResult> tasks;  ///< variants.size() * seeds.size() cells
  double wall_s = 0.0;            ///< whole-grid wall-clock
  unsigned jobs = 1;              ///< worker threads actually used

  [[nodiscard]] const TaskResult& at(std::size_t variant,
                                     std::size_t seed_index) const;
  /// Number of cells whose task threw.
  [[nodiscard]] std::size_t errors() const noexcept;
  /// Aggregates every metric of one variant over its seeds (errored cells
  /// are skipped; they carry no metrics).
  [[nodiscard]] Aggregate aggregate(std::size_t variant) const;
  /// Accumulator of one (variant, metric) across seeds.
  [[nodiscard]] sim::RunningStats stats(std::size_t variant,
                                        const std::string& metric) const;
  [[nodiscard]] double mean(std::size_t variant,
                            const std::string& metric) const;
  [[nodiscard]] double sum(std::size_t variant,
                           const std::string& metric) const;
  /// First non-empty note of a variant ("" if none).
  [[nodiscard]] const std::string& note(std::size_t variant) const;
};

class Runner {
 public:
  /// `jobs` — worker threads; 0 means std::thread::hardware_concurrency().
  explicit Runner(unsigned jobs = 0);

  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }

  /// Evaluates every cell of `grid`. Thread-safe w.r.t. the grid: the task
  /// callable is invoked concurrently and must only touch per-cell state
  /// (plus read-only captures).
  [[nodiscard]] GridResult run(std::string_view experiment,
                               const Grid& grid) const;

 private:
  unsigned jobs_;
};

}  // namespace sa::exp

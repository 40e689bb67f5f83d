// Harness-level checkpoint store (sa::exp over sa::ckpt).
//
// A CheckpointStore is the durable record of a bench run in flight: the
// shape of every grid it has started (name, variants, seeds), every
// completed cell's TaskResult with exact f64 metric bits, the control
// journal recorded so far, and an `interrupted` flag. The harness saves
// it periodically (--checkpoint PATH, every --checkpoint-every seconds)
// and once more from the SIGTERM/SIGINT supervisor; --resume PATH loads
// it and completed cells return their stored output instead of re-running
// — so the resumed run's BENCH json byte-matches an uninterrupted run
// (wall-clock fields aside).
//
// Persistence rides the sa::ckpt container: CRC-framed sections
// ("harness", "journal", "grid.<i>"), atomic writes with .prev rotation,
// and typed errors on corruption, so a checkpoint torn by the very crash
// it is meant to survive falls back to the newest valid file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/journal.hpp"
#include "exp/grid.hpp"
#include "exp/runner.hpp"

namespace sa::exp {

class CheckpointStore {
 public:
  explicit CheckpointStore(std::string experiment = {})
      : experiment_(std::move(experiment)) {}

  // --- building (live-run side; record() is thread-safe) ---

  /// Registers a grid about to run; returns its index. Grids are matched
  /// positionally on resume (bench binaries run their grids in a fixed
  /// order), so call in the same order every run.
  std::size_t add_grid(std::string name, std::vector<std::string> variants,
                       std::vector<std::uint64_t> seeds);
  /// Stores one completed cell (replacing any previous record of the same
  /// (variant, seed) — resumed cells are re-recorded into the new store).
  void record(std::size_t grid, TaskResult cell);
  void set_journal(std::vector<ckpt::JournalEntry> entries);
  void set_interrupted(bool on);

  // --- persistence ---

  /// Snapshots under the lock and writes atomically (tmp + fsync, rotate
  /// to .prev, rename) — safe to call from the supervisor thread while
  /// workers are still record()ing.
  [[nodiscard]] ckpt::Status save(const std::string& path) const;
  /// Loads `path`, falling back to `path.prev` when the primary is
  /// missing or corrupt (see ckpt::read_with_fallback). Replaces all
  /// state, including the experiment name.
  [[nodiscard]] ckpt::Status load(const std::string& path,
                                  std::string* used_path = nullptr,
                                  std::string* fallback_error = nullptr);

  // --- resume side ---

  [[nodiscard]] const std::string& experiment() const noexcept {
    return experiment_;
  }
  [[nodiscard]] bool interrupted() const noexcept { return interrupted_; }
  /// Total recorded cells across all grids.
  [[nodiscard]] std::size_t completed() const;
  /// Strict shape check of grid `grid` against the one about to run:
  /// "" when name, variants and seeds all match exactly (or the store has
  /// no grid at this index yet — a run interrupted before reaching it),
  /// otherwise a human-readable mismatch description. Anything but exact
  /// equality would silently splice results from a different
  /// configuration, so the harness refuses to resume on mismatch.
  [[nodiscard]] std::string match(std::size_t grid, const Grid& g) const;
  /// The stored cell, or nullptr. The pointer stays valid until the store
  /// is load()ed again (resume reads from a store that is no longer
  /// written to).
  [[nodiscard]] const TaskResult* find(std::size_t grid, std::size_t variant,
                                       std::uint64_t seed) const;
  [[nodiscard]] std::vector<ckpt::JournalEntry> journal() const;

  /// Full-shaped GridResults for the partial document an interrupted run
  /// writes: every registered grid at its declared variants × seeds size,
  /// with cells that never completed carrying the error
  /// "interrupted before completion" (so to_json/aggregate work unchanged
  /// and the completed cells keep their exact bits).
  [[nodiscard]] std::vector<GridResult> grid_results() const;

 private:
  struct Shape {
    std::string name;
    std::vector<std::string> variants;
    std::vector<std::uint64_t> seeds;
    std::vector<TaskResult> cells;  // completion order; (variant,seed) unique
  };

  mutable std::mutex mu_;
  std::string experiment_;
  bool interrupted_ = false;
  std::vector<Shape> grids_;
  std::vector<ckpt::JournalEntry> journal_;
};

}  // namespace sa::exp

#include "exp/ckpt_store.hpp"

#include <utility>

namespace sa::exp {
namespace {

void save_cell(const TaskResult& cell, ckpt::Buffer& out) {
  out.u64(static_cast<std::uint64_t>(cell.variant));
  out.u64(cell.seed);
  out.u64(static_cast<std::uint64_t>(cell.metrics.size()));
  for (const auto& [name, value] : cell.metrics) {
    out.str(name);
    out.f64(value);
  }
  out.str(cell.note);
  out.str(cell.error);
  out.f64(cell.wall_s);
}

[[nodiscard]] bool load_cell(ckpt::Cursor& in, TaskResult& out) {
  std::uint64_t variant = 0;
  std::uint64_t metric_count = 0;
  if (!in.u64(variant) || !in.u64(out.seed) || !in.u64(metric_count)) {
    return false;
  }
  out.variant = static_cast<std::size_t>(variant);
  out.metrics.clear();
  out.metrics.reserve(static_cast<std::size_t>(metric_count));
  for (std::uint64_t i = 0; i < metric_count; ++i) {
    std::string name;
    double value = 0.0;
    if (!in.str(name) || !in.f64(value)) return false;
    out.metrics.emplace_back(std::move(name), value);
  }
  return in.str(out.note) && in.str(out.error) && in.f64(out.wall_s);
}

}  // namespace

std::size_t CheckpointStore::add_grid(std::string name,
                                      std::vector<std::string> variants,
                                      std::vector<std::uint64_t> seeds) {
  const std::scoped_lock lk(mu_);
  grids_.push_back(
      Shape{std::move(name), std::move(variants), std::move(seeds), {}});
  return grids_.size() - 1;
}

void CheckpointStore::record(std::size_t grid, TaskResult cell) {
  const std::scoped_lock lk(mu_);
  if (grid >= grids_.size()) return;
  for (TaskResult& existing : grids_[grid].cells) {
    if (existing.variant == cell.variant && existing.seed == cell.seed) {
      existing = std::move(cell);
      return;
    }
  }
  grids_[grid].cells.push_back(std::move(cell));
}

void CheckpointStore::set_journal(std::vector<ckpt::JournalEntry> entries) {
  const std::scoped_lock lk(mu_);
  journal_ = std::move(entries);
}

void CheckpointStore::set_interrupted(bool on) {
  const std::scoped_lock lk(mu_);
  interrupted_ = on;
}

std::size_t CheckpointStore::completed() const {
  const std::scoped_lock lk(mu_);
  std::size_t n = 0;
  for (const Shape& g : grids_) n += g.cells.size();
  return n;
}

ckpt::Status CheckpointStore::save(const std::string& path) const {
  ckpt::Writer writer;
  {
    const std::scoped_lock lk(mu_);
    ckpt::Buffer harness;
    harness.str(experiment_);
    harness.boolean(interrupted_);
    harness.u64(static_cast<std::uint64_t>(grids_.size()));
    writer.section("harness", harness);

    ckpt::Buffer journal;
    ckpt::save_journal(journal_, journal);
    writer.section("journal", journal);

    for (std::size_t i = 0; i < grids_.size(); ++i) {
      const Shape& g = grids_[i];
      ckpt::Buffer b;
      b.str(g.name);
      b.u64(static_cast<std::uint64_t>(g.variants.size()));
      for (const std::string& v : g.variants) b.str(v);
      b.u64(static_cast<std::uint64_t>(g.seeds.size()));
      for (const std::uint64_t s : g.seeds) b.u64(s);
      b.u64(static_cast<std::uint64_t>(g.cells.size()));
      for (const TaskResult& cell : g.cells) save_cell(cell, b);
      writer.section("grid." + std::to_string(i), b);
    }
  }
  return ckpt::write_file_atomic(path, writer.finish());
}

ckpt::Status CheckpointStore::load(const std::string& path,
                                   std::string* used_path,
                                   std::string* fallback_error) {
  ckpt::Reader reader;
  if (ckpt::Status st =
          ckpt::read_with_fallback(path, reader, used_path, fallback_error);
      !st.ok()) {
    return st;
  }

  std::string experiment;
  bool interrupted = false;
  std::vector<Shape> grids;
  std::vector<ckpt::JournalEntry> journal;

  ckpt::Cursor harness;
  if (ckpt::Status st = reader.open("harness", harness); !st.ok()) return st;
  std::uint64_t grid_count = 0;
  if (!harness.str(experiment) || !harness.boolean(interrupted) ||
      !harness.u64(grid_count)) {
    return ckpt::Status::error(ckpt::Errc::kMalformed,
                               "harness section too short");
  }
  if (ckpt::Status st = harness.finish("harness section"); !st.ok()) return st;

  ckpt::Cursor jc;
  if (ckpt::Status st = reader.open("journal", jc); !st.ok()) return st;
  if (ckpt::Status st = ckpt::load_journal(jc, journal); !st.ok()) return st;

  grids.reserve(static_cast<std::size_t>(grid_count));
  for (std::uint64_t i = 0; i < grid_count; ++i) {
    const std::string section = "grid." + std::to_string(i);
    ckpt::Cursor c;
    if (ckpt::Status st = reader.open(section, c); !st.ok()) return st;
    Shape g;
    std::uint64_t variant_count = 0;
    std::uint64_t seed_count = 0;
    std::uint64_t cell_count = 0;
    if (!c.str(g.name) || !c.u64(variant_count)) {
      return ckpt::Status::error(ckpt::Errc::kMalformed,
                                 section + " too short");
    }
    g.variants.reserve(static_cast<std::size_t>(variant_count));
    for (std::uint64_t v = 0; v < variant_count; ++v) {
      std::string name;
      if (!c.str(name)) {
        return ckpt::Status::error(ckpt::Errc::kMalformed,
                                   section + ": truncated variant list");
      }
      g.variants.push_back(std::move(name));
    }
    if (!c.u64(seed_count)) {
      return ckpt::Status::error(ckpt::Errc::kMalformed,
                                 section + ": truncated seed list");
    }
    g.seeds.reserve(static_cast<std::size_t>(seed_count));
    for (std::uint64_t s = 0; s < seed_count; ++s) {
      std::uint64_t seed = 0;
      if (!c.u64(seed)) {
        return ckpt::Status::error(ckpt::Errc::kMalformed,
                                   section + ": truncated seed list");
      }
      g.seeds.push_back(seed);
    }
    if (!c.u64(cell_count)) {
      return ckpt::Status::error(ckpt::Errc::kMalformed,
                                 section + ": truncated cell list");
    }
    for (std::uint64_t n = 0; n < cell_count; ++n) {
      TaskResult cell;
      if (!load_cell(c, cell)) {
        return ckpt::Status::error(ckpt::Errc::kMalformed,
                                   section + ": truncated cell");
      }
      if (cell.variant >= g.variants.size()) {
        return ckpt::Status::error(
            ckpt::Errc::kMalformed,
            section + ": cell variant index out of range");
      }
      g.cells.push_back(std::move(cell));
    }
    if (ckpt::Status st = c.finish(section); !st.ok()) return st;
    grids.push_back(std::move(g));
  }

  const std::scoped_lock lk(mu_);
  experiment_ = std::move(experiment);
  interrupted_ = interrupted;
  grids_ = std::move(grids);
  journal_ = std::move(journal);
  return {};
}

std::string CheckpointStore::match(std::size_t grid, const Grid& g) const {
  const std::scoped_lock lk(mu_);
  if (grid >= grids_.size()) return {};  // run never reached this grid
  const Shape& stored = grids_[grid];
  if (stored.name != g.name) {
    return "grid " + std::to_string(grid) + " is '" + stored.name +
           "' in the checkpoint but '" + g.name + "' in this run";
  }
  if (stored.variants != g.variants) {
    return "grid '" + g.name + "' has a different variant list than the "
           "checkpoint";
  }
  if (stored.seeds != g.seeds) {
    return "grid '" + g.name + "' has a different seed list than the "
           "checkpoint (did --seeds or --fault-plan change?)";
  }
  return {};
}

const TaskResult* CheckpointStore::find(std::size_t grid, std::size_t variant,
                                        std::uint64_t seed) const {
  const std::scoped_lock lk(mu_);
  if (grid >= grids_.size()) return nullptr;
  for (const TaskResult& cell : grids_[grid].cells) {
    if (cell.variant == variant && cell.seed == seed) return &cell;
  }
  return nullptr;
}

std::vector<ckpt::JournalEntry> CheckpointStore::journal() const {
  const std::scoped_lock lk(mu_);
  return journal_;
}

std::vector<GridResult> CheckpointStore::grid_results() const {
  const std::scoped_lock lk(mu_);
  std::vector<GridResult> out;
  out.reserve(grids_.size());
  for (const Shape& g : grids_) {
    GridResult r;
    r.experiment = experiment_;
    r.name = g.name;
    r.variants = g.variants;
    r.seeds = g.seeds;
    r.tasks.resize(g.variants.size() * g.seeds.size());
    for (std::size_t v = 0; v < g.variants.size(); ++v) {
      for (std::size_t s = 0; s < g.seeds.size(); ++s) {
        TaskResult& slot = r.tasks[v * g.seeds.size() + s];
        slot.variant = v;
        slot.seed = g.seeds[s];
        slot.error = "interrupted before completion";
      }
    }
    for (const TaskResult& cell : g.cells) {
      for (std::size_t s = 0; s < g.seeds.size(); ++s) {
        if (g.seeds[s] == cell.seed && cell.variant < g.variants.size()) {
          r.tasks[cell.variant * g.seeds.size() + s] = cell;
          break;
        }
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace sa::exp

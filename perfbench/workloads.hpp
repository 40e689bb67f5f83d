// The benchmark's two workloads (see README.md for why each exists):
//
//   city     the generated smart city on one engine, h=1200, with an
//            in-memory checkpoint saved every 100 sim-s between run
//            segments. Its traced run also serves the city at h=600 behind
//            a live serve::Server, loaded by three client threads
//            (clients.hpp), for the serve layer's metrics;
//   metro    the 1/8-scale bench_shard city through shard::ShardedWorld at
//            2 shards.
//
// Each run builds, runs and destroys a fixed number of passes over its
// workload's world pool, timing every phase, and checks every world's
// summary fingerprint against the committed reference for its seed.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> end_to_end;  ///< untraced runs report these
  std::vector<Metric> per_layer;   ///< traced runs report these
  /// Workload-specific end-to-end figures (checkpoint pause, client
  /// latencies) that not every workload has; printed as comment lines.
  std::vector<Metric> figures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;  ///< one line per fingerprint failure
  std::size_t worlds = 0;
};

/// Committed summary fingerprints, keyed by "<workload> <world seed>".
class References {
 public:
  /// Reads "workload seed fingerprint" lines ('#' starts a comment).
  /// Returns false if the file cannot be read.
  bool load(const std::string& path);
  [[nodiscard]] const std::string* find(const std::string& workload,
                                        std::uint64_t world_seed) const;

 private:
  std::map<std::string, std::string> refs_;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  const References* refs = nullptr;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument on an unknown workload.
[[nodiscard]] Outcome run_workload(const RunArgs& args);
/// Runs every reference world of every workload and writes the
/// reference file's lines to `out`.
void write_references(std::ostream& out);

}  // namespace perfbench

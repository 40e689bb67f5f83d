// Reusable metamorphic-testing helpers shared by the property, gen and
// integration suites.
//
// A metamorphic test does not know the "right" answer; it knows a relation
// that must hold between two runs of the system. The two relations this
// header packages are the ones the repo's determinism contract is built
// on:
//
//   * run-twice-and-byte-compare — two executions that are supposed to be
//     equivalent (serial vs parallel pools, with vs without telemetry,
//     repeated identical runs) must serialise to identical bytes;
//   * run-under-transform-and-assert-relation — a controlled change to the
//     input (e.g. scaling fault pressure) must move an output metric in a
//     known direction (monotone()).
//
// Everything returns ::testing::AssertionResult so call sites read as
// EXPECT_TRUE(test::support::byte_identical(a, b)) with a useful message
// on failure (first differing byte plus surrounding context).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exp/harness.hpp"
#include "exp/runner.hpp"
#include "gen/scenario.hpp"
#include "gen/spec.hpp"
#include "shard/world.hpp"

namespace sa::test::support {

/// A worker-pool size that genuinely interleaves even on small CI
/// machines (promoted from the integration determinism suite).
inline unsigned parallel_jobs() {
  return std::max(4u, std::thread::hardware_concurrency());
}

/// Byte-exact comparison with a first-difference diagnostic. `what` names
/// the two artefacts in the failure message.
inline ::testing::AssertionResult byte_identical(
    std::string_view a, std::string_view b,
    std::string_view what = "serialisations") {
  if (a == b) return ::testing::AssertionSuccess();
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  const auto snippet = [i](std::string_view s) {
    const std::size_t from = i < 40 ? 0 : i - 40;
    return std::string(s.substr(from, std::min<std::size_t>(80, s.size() - from)));
  };
  return ::testing::AssertionFailure()
         << what << " differ (sizes " << a.size() << " vs " << b.size()
         << ", first difference at byte " << i << "):\n  a: ..."
         << snippet(a) << "...\n  b: ..." << snippet(b) << "...";
}

/// Run-twice-and-byte-compare over a string producer: calls `run` twice
/// and requires identical bytes (e.g. a Scenario summary serialiser).
template <typename Producer>
::testing::AssertionResult reproduces(Producer&& run,
                                      std::string_view what = "repeated runs") {
  const std::string first = run();
  const std::string second = run();
  return byte_identical(first, second, what);
}

/// The thread-count-invariance relation: a grid executed by a 1-worker
/// pool and by a many-worker pool must produce byte-identical timing-free
/// JSON. `jobs == 0` picks parallel_jobs().
inline ::testing::AssertionResult thread_count_invariant(
    const exp::Grid& grid, unsigned jobs = 0) {
  if (jobs == 0) jobs = parallel_jobs();
  const auto serial = exp::Runner(1).run("metamorphic", grid);
  const auto parallel = exp::Runner(jobs).run("metamorphic", grid);
  if (serial.errors() != 0 || parallel.errors() != 0) {
    return ::testing::AssertionFailure()
           << "grid '" << grid.name << "' raised task errors (serial "
           << serial.errors() << ", parallel " << parallel.errors() << ")";
  }
  return byte_identical(exp::to_json(serial).dump(),
                        exp::to_json(parallel).dump(),
                        "serial vs " + std::to_string(jobs) +
                            "-worker grid results");
}

/// Bit-exact serialisation of a scenario's summary metrics (hexfloat, so
/// equality means the doubles are identical, not merely close).
inline std::string scenario_fingerprint(gen::Scenario& city) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& [name, value] : city.summary()) {
    os << name << '=' << value << '\n';
  }
  return os.str();
}

/// The shard-count-invariance relation (sa::shard's determinism contract):
/// one generated world, run as a bare gen::Scenario (the reference) and as
/// a ShardedWorld at every count in `counts`, must produce a bit-identical
/// summary fingerprint —
/// and the shards together must execute exactly the events the monolithic
/// engine did. `prepare` (optional) runs after construction and before the
/// run on every world, e.g. to schedule a control-journal replay on
/// `city.engine()`. Callers' suites must link sa_shard and sa_gen.
inline ::testing::AssertionResult shard_count_invariant(
    const std::string& spec_text, std::uint64_t seed,
    const std::vector<std::size_t>& counts = {1, 2, 4, 8},
    const std::function<void(gen::Scenario&)>& prepare = {},
    bool self_aware = true) {
  gen::ScenarioSpec spec;
  try {
    spec = gen::ScenarioSpec::parse(spec_text);
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure()
           << "spec parse failed: " << e.what() << "\n  spec: " << spec_text;
  }

  std::string ref;
  std::uint64_t ref_events = 0;
  {
    gen::Scenario::Options opts;
    opts.self_aware = self_aware;
    gen::Scenario city(spec, seed, opts);
    if (prepare) prepare(city);
    city.run();
    ref = scenario_fingerprint(city);
    ref_events = city.engine().executed();
  }

  for (const std::size_t n : counts) {
    try {
      shard::ShardedWorld world(
          spec, seed, {.shards = n, .scenario = {.self_aware = self_aware}});
      if (prepare) prepare(world.world());
      world.run();
      const std::string got = scenario_fingerprint(world.world());
      if (auto result = byte_identical(
              ref, got,
              "single-engine vs " + std::to_string(n) + "-shard summaries");
          !result) {
        return result;
      }
      std::uint64_t total = 0;
      for (const std::uint64_t e : world.shard_events()) total += e;
      if (total != ref_events) {
        return ::testing::AssertionFailure()
               << n << "-shard run executed " << total
               << " events in total; the monolithic run executed "
               << ref_events;
      }
    } catch (const std::exception& e) {
      return ::testing::AssertionFailure()
             << "shards=" << n << " threw: " << e.what()
             << "\n  spec: " << spec_text;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Directions for monotone(). "Strictly" forbids ties.
enum class Relation {
  kNonDecreasing,
  kNonIncreasing,
  kStrictlyIncreasing,
  kStrictlyDecreasing,
};

/// Run-under-transform relation: `values[k]` was measured under the k-th
/// step of a transform (e.g. fault pressure 0, 2, 8) and must move in
/// `rel`'s direction. `what` names the metric in the failure message.
inline ::testing::AssertionResult monotone(const std::vector<double>& values,
                                           Relation rel,
                                           std::string_view what = "metric") {
  for (std::size_t k = 1; k < values.size(); ++k) {
    const double prev = values[k - 1], cur = values[k];
    const bool ok = rel == Relation::kNonDecreasing     ? cur >= prev
                    : rel == Relation::kNonIncreasing   ? cur <= prev
                    : rel == Relation::kStrictlyIncreasing ? cur > prev
                                                           : cur < prev;
    if (!ok) {
      std::ostringstream os;
      os << what << " not monotone at step " << k << ": ";
      for (std::size_t j = 0; j < values.size(); ++j) {
        os << (j ? ", " : "") << values[j];
      }
      return ::testing::AssertionFailure() << os.str();
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace sa::test::support

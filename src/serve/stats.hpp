// Serve-plane self-observability: the server's own model of itself.
//
// The paper's reflexivity argument (a self-aware system should hold an
// inspectable model of *itself*, not only of what it watches) applied to
// the one component that had almost none: sa::serve. ServerStats gives the
// HTTP plane per-route latency histograms and connection-lifecycle
// counters that the server renders into its own /metrics scrape.
//
// Design constraints, in order:
//
//   allocation-free hot path   Recording a request is a handful of relaxed
//                              atomic adds into fixed-size arrays — the
//                              same `ctest -L perf` discipline as the
//                              engine's slot arena (tests/perf/).
//   per-worker, lock-light     Each worker thread owns a cache-line-
//                              aligned slab of histograms and counters;
//                              there is no shared write cacheline and no
//                              lock anywhere on the request path. Scrapes
//                              merge the slabs with relaxed loads — counts
//                              are monotone, so a merge is always a valid
//                              (if slightly torn) snapshot.
//   mergeable, deterministic   Histogram buckets are fixed log-linear
//                              boundaries (below), so merging is integer
//                              addition: associative, commutative, and
//                              byte-deterministic however many slabs the
//                              samples were spread over.
//
// Bucket layout (log-linear, HDR-style): 7 decades from 1 µs to 10 s,
// each split into 9 linear sub-buckets, plus an overflow bucket. Finite
// upper bounds are (m+2)·10^d µs for sub-bucket m of decade d — i.e.
// 2,3,…,10 µs; 20,30,…,100 µs; … ; 2,3,…,10 s. 63 finite buckets cover
// the whole range at ≤ ~11% relative error, and every boundary is an
// exact short decimal in seconds (clean `le` labels).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/ring.hpp"

namespace sa::serve {

/// The route classes the server keys its self-model by. Everything not one
/// of the five wired endpoints (404s, probes, typos) lands in Other.
enum class RouteClass : std::uint8_t {
  Metrics = 0,
  Status,
  Events,
  Control,
  Healthz,
  Other,
};
inline constexpr std::size_t kRouteClasses = 6;

/// Classifies a request path ("/metrics" -> Metrics, unknown -> Other).
[[nodiscard]] RouteClass classify_route(std::string_view path) noexcept;

/// Stable label value for a route class ("/metrics", ..., "other").
[[nodiscard]] const char* route_label(RouteClass route) noexcept;

/// One log-linear latency histogram with fixed boundaries (see file
/// comment). Writers call record() — lock-free, allocation-free; readers
/// take snapshot()s with relaxed loads. Single-writer per instance in the
/// server (one per worker slab), but concurrent writers are also safe.
class LatencyHistogram {
 public:
  static constexpr int kDecades = 7;      ///< 1 µs .. 10 s
  static constexpr int kSubBuckets = 9;   ///< linear splits per decade
  static constexpr int kFiniteBuckets = kDecades * kSubBuckets;  // 63

  /// Finite bucket index of a duration; kFiniteBuckets for >= 10 s
  /// (overflow). Negative/zero durations land in bucket 0.
  [[nodiscard]] static int bucket_of(double seconds) noexcept;
  /// Upper bound (`le`) of a finite bucket, in seconds.
  [[nodiscard]] static double upper_bound_s(int bucket) noexcept;
  /// Exact short-decimal `le` label of a finite bucket ("0.000002", "10").
  [[nodiscard]] static std::string le_label(int bucket);

  /// Hot path: one duration into its bucket. Relaxed atomics only.
  void record(double seconds) noexcept;

  /// A merged, plain-integer view. Buckets are NON-cumulative counts of
  /// the finite buckets; `overflow` holds samples >= 10 s; `count`
  /// includes them (so a cumulative render's +Inf bucket == count).
  struct Snapshot {
    std::array<std::uint64_t, kFiniteBuckets> buckets{};
    std::uint64_t overflow = 0;
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;

    void merge(const Snapshot& other) noexcept;
    [[nodiscard]] double sum_s() const noexcept {
      return static_cast<double>(sum_ns) * 1e-9;
    }
    /// Deterministic quantile estimate (linear interpolation inside the
    /// bucket; overflow answers the last finite bound). q in [0, 1].
    [[nodiscard]] double quantile(double q) const noexcept;
  };
  [[nodiscard]] Snapshot snapshot() const noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kFiniteBuckets> buckets_{};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// The statuses parse rejections are keyed by in the self-scrape: the five
/// the parser can produce plus a catch-all.
inline constexpr std::array<int, 5> kRejectStatuses = {400, 413, 431, 501,
                                                      505};
inline constexpr std::size_t kRejectKinds = kRejectStatuses.size() + 1;

/// Per-worker latency histograms + connection-lifecycle counters for the
/// embedded HTTP server, merged on demand for /metrics and /status.
class ServerStats {
 public:
  struct SlowRequest {
    RouteClass route = RouteClass::Other;
    double duration_s = 0.0;
    int status = 0;
    double sim_t = 0.0;  ///< sim time last published when it finished
  };

  /// `workers` — number of writer slabs (the server's worker count).
  /// Requests slower than `slow_threshold_s` additionally enter a bounded
  /// ring of `slow_ring` entries surfaced by /status.
  explicit ServerStats(unsigned workers, double slow_threshold_s = 0.05,
                       std::size_t slow_ring = 32);

  // -- Hot path (worker threads; allocation-free) ---------------------------
  void record_request(unsigned worker, RouteClass route, double seconds,
                      int status, std::uint64_t response_bytes) noexcept;
  void record_queue_wait(unsigned worker, double seconds) noexcept;
  void add_request_bytes(unsigned worker, std::uint64_t bytes) noexcept;
  /// Response bytes outside record_request (streaming writes).
  void add_response_bytes(unsigned worker, std::uint64_t bytes) noexcept;
  void on_keepalive_reuse(unsigned worker) noexcept;
  void on_write_timeout(unsigned worker) noexcept;
  void on_parse_reject(unsigned worker, int status) noexcept;

  // -- Lifecycle (acceptor + workers) ---------------------------------------
  void connection_opened() noexcept {
    active_.fetch_add(1, std::memory_order_relaxed);
  }
  void connection_closed() noexcept {
    active_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Latest published sim time (the bridge stores it at every publish so
  /// slow-request records can carry the sim clock, not just wall time).
  void set_sim_time(double t) noexcept {
    sim_time_.store(t, std::memory_order_relaxed);
  }
  [[nodiscard]] double sim_time() const noexcept {
    return sim_time_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t active_connections() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] unsigned workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Everything /metrics and /status need, merged across worker slabs.
  struct Snapshot {
    std::array<LatencyHistogram::Snapshot, kRouteClasses> routes{};
    LatencyHistogram::Snapshot queue_wait{};
    std::uint64_t active = 0;
    std::uint64_t keepalive_reuses = 0;
    std::uint64_t write_timeouts = 0;
    std::uint64_t request_bytes = 0;
    std::uint64_t response_bytes = 0;
    /// Parse rejections keyed by kRejectStatuses order, then "other".
    std::array<std::uint64_t, kRejectKinds> rejects{};
    std::vector<SlowRequest> slow;  ///< oldest to newest
  };
  [[nodiscard]] Snapshot snapshot() const;

 private:
  /// One writer thread's slab. Cache-line aligned so two workers never
  /// share a write line; everything inside is only ever touched by its
  /// worker (writes) and scrapers (relaxed reads).
  struct alignas(64) Worker {
    std::array<LatencyHistogram, kRouteClasses> latency{};
    LatencyHistogram queue_wait{};
    std::atomic<std::uint64_t> keepalive_reuses{0};
    std::atomic<std::uint64_t> write_timeouts{0};
    std::atomic<std::uint64_t> request_bytes{0};
    std::atomic<std::uint64_t> response_bytes{0};
    std::array<std::atomic<std::uint64_t>, kRejectKinds> rejects{};
  };

  [[nodiscard]] Worker& slab(unsigned worker) noexcept {
    return workers_[worker < workers_.size() ? worker : 0];
  }

  std::vector<Worker> workers_;
  std::atomic<std::uint64_t> active_{0};
  std::atomic<double> sim_time_{0.0};

  // Slow-request ring: only requests above the threshold take this lock,
  // so the steady-state path never does. Reserved to its full capacity at
  // construction, so pushes never allocate.
  double slow_threshold_s_;
  mutable std::mutex slow_mu_;
  sim::Ring<SlowRequest> slow_;  ///< guarded by slow_mu_
};

}  // namespace sa::serve

#include "serve/stats.hpp"

#include <algorithm>

namespace sa::serve {
namespace {

/// 10^d for the decade scales, in integer microseconds.
constexpr std::array<std::uint64_t, LatencyHistogram::kDecades> kDecadeUs = {
    1, 10, 100, 1'000, 10'000, 100'000, 1'000'000};

/// Reject-status -> slot in kRejectStatuses order, catch-all last.
std::size_t reject_slot(int status) noexcept {
  for (std::size_t i = 0; i < kRejectStatuses.size(); ++i) {
    if (kRejectStatuses[i] == status) return i;
  }
  return kRejectKinds - 1;
}

}  // namespace

RouteClass classify_route(std::string_view path) noexcept {
  if (path == "/metrics") return RouteClass::Metrics;
  if (path == "/status") return RouteClass::Status;
  if (path == "/events") return RouteClass::Events;
  if (path == "/control") return RouteClass::Control;
  if (path == "/healthz") return RouteClass::Healthz;
  return RouteClass::Other;
}

const char* route_label(RouteClass route) noexcept {
  switch (route) {
    case RouteClass::Metrics: return "/metrics";
    case RouteClass::Status: return "/status";
    case RouteClass::Events: return "/events";
    case RouteClass::Control: return "/control";
    case RouteClass::Healthz: return "/healthz";
    case RouteClass::Other: break;
  }
  return "other";
}

int LatencyHistogram::bucket_of(double seconds) noexcept {
  if (!(seconds > 0.0)) return 0;
  const double us_d = seconds * 1e6;
  if (us_d >= 1e7) return kFiniteBuckets;  // >= 10 s: overflow
  const auto us = static_cast<std::uint64_t>(us_d);
  int decade = 0;
  std::uint64_t scale = 1;
  while (us >= scale * 10) {
    scale *= 10;
    ++decade;
  }
  // Mantissa m in [0, 9]; sub-buckets cover [m·10^d, (m+1)·10^d) with m=0
  // and m=1 folded together (everything below 2·10^d shares bucket 0).
  const auto m = us / scale;
  const int sub = m <= 1 ? 0 : static_cast<int>(m) - 1;
  return decade * kSubBuckets + sub;
}

double LatencyHistogram::upper_bound_s(int bucket) noexcept {
  bucket = std::clamp(bucket, 0, kFiniteBuckets - 1);
  const int decade = bucket / kSubBuckets;
  const int sub = bucket % kSubBuckets;
  const std::uint64_t le_us =
      static_cast<std::uint64_t>(sub + 2) * kDecadeUs[decade];
  return static_cast<double>(le_us) * 1e-6;
}

std::string LatencyHistogram::le_label(int bucket) {
  bucket = std::clamp(bucket, 0, kFiniteBuckets - 1);
  const int decade = bucket / kSubBuckets;
  const int sub = bucket % kSubBuckets;
  const std::uint64_t le_us =
      static_cast<std::uint64_t>(sub + 2) * kDecadeUs[decade];
  // Exact decimal seconds from integer microseconds: whole part, then the
  // six-digit fraction with trailing zeros trimmed.
  std::string out = std::to_string(le_us / 1'000'000);
  std::uint64_t frac = le_us % 1'000'000;
  if (frac != 0) {
    char digits[7];
    for (int i = 5; i >= 0; --i) {
      digits[i] = static_cast<char>('0' + frac % 10);
      frac /= 10;
    }
    digits[6] = '\0';
    std::string_view sv{digits, 6};
    while (sv.ends_with('0')) sv.remove_suffix(1);
    out += '.';
    out += sv;
  }
  return out;
}

void LatencyHistogram::record(double seconds) noexcept {
  const int bucket = bucket_of(seconds);
  if (bucket >= kFiniteBuckets) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
  } else {
    buckets_[static_cast<std::size_t>(bucket)].fetch_add(
        1, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  const double ns = seconds > 0.0 ? seconds * 1e9 : 0.0;
  sum_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                    std::memory_order_relaxed);
}

void LatencyHistogram::Snapshot::merge(const Snapshot& other) noexcept {
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  overflow += other.overflow;
  count += other.count;
  sum_ns += other.sum_ns;
}

double LatencyHistogram::Snapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based; integer arithmetic after the one
  // multiply keeps the walk deterministic.
  auto target = static_cast<std::uint64_t>(q * static_cast<double>(count));
  target = std::clamp<std::uint64_t>(target + (target < count ? 1 : 0), 1,
                                     count);
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kFiniteBuckets; ++b) {
    const std::uint64_t in_bucket = buckets[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    cumulative += in_bucket;
    if (cumulative >= target) {
      const double lower = b == 0 ? 0.0 : upper_bound_s(b - 1);
      const double upper = upper_bound_s(b);
      const auto into = static_cast<double>(target - (cumulative - in_bucket));
      return lower + (upper - lower) * into / static_cast<double>(in_bucket);
    }
  }
  // Target sits in the overflow bucket: answer its lower bound (10 s).
  return upper_bound_s(kFiniteBuckets - 1);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const noexcept {
  Snapshot snap;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.overflow = overflow_.load(std::memory_order_relaxed);
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  return snap;
}

ServerStats::ServerStats(unsigned workers, double slow_threshold_s,
                         std::size_t slow_ring)
    : workers_(std::max(workers, 1u)),
      slow_threshold_s_(slow_threshold_s),
      slow_(std::max<std::size_t>(slow_ring, 1)) {
  slow_.reserve(slow_.capacity());
}

void ServerStats::record_request(unsigned worker, RouteClass route,
                                 double seconds, int status,
                                 std::uint64_t response_bytes) noexcept {
  Worker& w = slab(worker);
  w.latency[static_cast<std::size_t>(route)].record(seconds);
  w.response_bytes.fetch_add(response_bytes, std::memory_order_relaxed);
  if (seconds >= slow_threshold_s_) {
    SlowRequest entry{route, seconds, status, sim_time()};
    std::lock_guard<std::mutex> lock(slow_mu_);
    slow_.push(entry);
  }
}

void ServerStats::record_queue_wait(unsigned worker, double seconds) noexcept {
  slab(worker).queue_wait.record(seconds);
}

void ServerStats::add_request_bytes(unsigned worker,
                                    std::uint64_t bytes) noexcept {
  slab(worker).request_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void ServerStats::add_response_bytes(unsigned worker,
                                     std::uint64_t bytes) noexcept {
  slab(worker).response_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void ServerStats::on_keepalive_reuse(unsigned worker) noexcept {
  slab(worker).keepalive_reuses.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::on_write_timeout(unsigned worker) noexcept {
  slab(worker).write_timeouts.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::on_parse_reject(unsigned worker, int status) noexcept {
  slab(worker).rejects[reject_slot(status)].fetch_add(
      1, std::memory_order_relaxed);
}

ServerStats::Snapshot ServerStats::snapshot() const {
  Snapshot snap;
  for (const Worker& w : workers_) {
    for (std::size_t r = 0; r < kRouteClasses; ++r) {
      snap.routes[r].merge(w.latency[r].snapshot());
    }
    snap.queue_wait.merge(w.queue_wait.snapshot());
    snap.keepalive_reuses +=
        w.keepalive_reuses.load(std::memory_order_relaxed);
    snap.write_timeouts += w.write_timeouts.load(std::memory_order_relaxed);
    snap.request_bytes += w.request_bytes.load(std::memory_order_relaxed);
    snap.response_bytes += w.response_bytes.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kRejectKinds; ++i) {
      snap.rejects[i] += w.rejects[i].load(std::memory_order_relaxed);
    }
  }
  snap.active = active_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    snap.slow.assign(slow_.begin(), slow_.end());
  }
  return snap;
}

}  // namespace sa::serve

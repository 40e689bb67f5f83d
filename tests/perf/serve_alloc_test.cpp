// Steady-state allocation contract of the serve plane's self-observability
// hot path: once a ServerStats exists, recording requests, queue waits,
// byte counts, lifecycle ticks and parse rejections must never touch the
// heap — including requests that enter the pre-sized slow-request ring.
// This is the `ctest -L perf` discipline of tests/perf/ applied to the
// stats added for the per-route latency histograms.
//
// The binary links the shared operator-new counter
// (tests/support/alloc_counter), so no other suites are linked into it.
#include <gtest/gtest.h>

#include "serve/stats.hpp"
#include "support/alloc_counter.hpp"

namespace {

using namespace sa::serve;
using sa::test::support::allocs;

TEST(ServeStatsAlloc, HistogramRecordIsAllocFree) {
  LatencyHistogram h;
  h.record(1e-3);  // warm (nothing to warm, but keep the shape uniform)
  const auto before = allocs();
  for (int i = 0; i < 10000; ++i) {
    h.record(1e-6 * static_cast<double>(i + 1));
  }
  h.record(0.0);
  h.record(60.0);  // overflow bucket
  EXPECT_EQ(allocs(), before) << "LatencyHistogram::record allocated";
}

TEST(ServeStatsAlloc, RequestPathIsAllocFreeIncludingSlowRingWrites) {
  // Threshold 0 routes EVERY request through the slow-ring branch, the
  // most allocation-prone path (it is a vector write — pre-sized at
  // construction, never grown).
  ServerStats stats(4, /*slow_threshold_s=*/0.0, /*slow_ring=*/32);
  stats.set_sim_time(1.5);
  for (unsigned w = 0; w < 4; ++w) {
    stats.record_request(w, RouteClass::Metrics, 1e-3, 200, 64);  // warm
  }
  const auto before = allocs();
  for (int i = 0; i < 10000; ++i) {
    const auto worker = static_cast<unsigned>(i & 3);
    const auto route = static_cast<RouteClass>(i % 6);
    stats.record_request(worker, route, 1e-5 * static_cast<double>(i % 100),
                         200, 512);
    stats.record_queue_wait(worker, 2e-6);
    stats.add_request_bytes(worker, 128);
    stats.add_response_bytes(worker, 512);
  }
  EXPECT_EQ(allocs(), before) << "request recording allocated";
}

TEST(ServeStatsAlloc, LifecycleAndRejectTicksAreAllocFree) {
  ServerStats stats(2);
  stats.on_parse_reject(0, 400);  // warm
  const auto before = allocs();
  for (int i = 0; i < 10000; ++i) {
    stats.connection_opened();
    stats.on_keepalive_reuse(0);
    stats.on_write_timeout(1);
    stats.on_parse_reject(0, i % 2 == 0 ? 400 : 418);
    stats.set_sim_time(static_cast<double>(i));
    stats.connection_closed();
  }
  EXPECT_EQ(allocs(), before) << "lifecycle ticks allocated";
}

}  // namespace

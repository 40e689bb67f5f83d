// Global heap-allocation counter for the allocation-contract suites
// (`ctest -L perf` and the telemetry no-allocation tests) and for E10's
// allocs/op column (bench/bench_e10_micro.cpp).
//
// alloc_counter.cpp replaces the global operator new/delete of whatever
// binary links it. Every operator new bumps two counters: one process-wide,
// so a test can assert that a code region performs no heap allocation on
// any thread (server workers allocate on their own threads), and one per
// thread, so concurrent benchmark kernels stay independent under --jobs N.
// Deletes are not counted. One replacement per binary, so link it only into
// telemetry_tests, alloc_regression_tests, serve_alloc_tests and
// bench_e10_micro.
#pragma once

#include <cstdint>

namespace sa::test::support {

/// operator new calls so far in this process.
[[nodiscard]] std::uint64_t allocs() noexcept;

/// operator new calls so far on the calling thread.
[[nodiscard]] std::uint64_t thread_allocs() noexcept;

}  // namespace sa::test::support

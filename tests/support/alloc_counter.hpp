// Global heap-allocation counter for the allocation-contract suites
// (`ctest -L perf` and the telemetry no-allocation tests).
//
// alloc_counter.cpp replaces the global operator new/delete of whatever
// binary links it: every operator new bumps one process-wide counter, so
// a test can assert that a code region performs no heap allocation at all.
// One replacement per binary, so link it only into telemetry_tests,
// alloc_regression_tests and serve_alloc_tests.
#pragma once

#include <cstdint>

namespace sa::test::support {

/// operator new calls so far in this process.
[[nodiscard]] std::uint64_t allocs() noexcept;

}  // namespace sa::test::support

// Measurement helpers the benchmark wraps around public library calls:
// a counting allocator, RSS samples, an engine profile keyed by event
// order, exact sample statistics and summary fingerprints.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// -- Allocation counting ------------------------------------------------------
// This binary replaces the global operator new. It always forwards to
// malloc; it counts only while counting is switched on (traced runs).

struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
void set_alloc_counting(bool on) noexcept;
[[nodiscard]] AllocCounts alloc_counts() noexcept;

// -- Memory ---------------------------------------------------------------------

/// Resident set size now, MB (from /proc/self/statm).
[[nodiscard]] double rss_mb();
/// Peak resident set size of this process so far, MB (getrusage).
[[nodiscard]] double peak_rss_mb();
/// Returns freed heap pages to the kernel, so the next RSS sample shows
/// what the next world really uses.
void trim_heap();

// -- Sample statistics -----------------------------------------------------------

/// Exact quantile by linear interpolation between order statistics
/// (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// -- Engine profile ---------------------------------------------------------------

/// Event classes by engine order — the library's scheduling convention:
/// fault injection at -1, substrate steps and couplings at 0, agent control
/// at 1, knowledge exchange at 2, the serve bridge's publish at 1000.
enum class EventClass : std::uint8_t {
  Fault = 0,
  Substrate,
  Oda,
  Exchange,
  Publish,
  Other,
};
inline constexpr std::size_t kEventClasses = 6;
[[nodiscard]] EventClass classify_order(int order) noexcept;
/// Metric-name prefix of a class ("fault", "substrate", "core.oda", ...).
[[nodiscard]] const char* class_name(EventClass c) noexcept;

/// Per-class event count, busy time and a fine log-bucket histogram of
/// handler durations. record() neither allocates nor locks, so a profile
/// hook built on it adds no allocations to the run it measures.
class EngineProfile {
 public:
  void record(int order, double wall_s) noexcept;
  void merge(const EngineProfile& other) noexcept;

  [[nodiscard]] std::uint64_t events(EventClass c) const noexcept {
    return cls_[static_cast<std::size_t>(c)].events;
  }
  [[nodiscard]] double busy_s(EventClass c) const noexcept {
    return cls_[static_cast<std::size_t>(c)].busy_s;
  }
  /// 99th-percentile handler duration, µs (bucket upper bound; buckets are
  /// 1/64 of a decade wide, about 3.7%).
  [[nodiscard]] double p99_us(EventClass c) const noexcept;
  [[nodiscard]] std::uint64_t total_events() const noexcept;
  [[nodiscard]] double total_busy_s() const noexcept;

 private:
  static constexpr int kPerDecade = 64;
  static constexpr int kDecades = 10;  // 1 ns .. 10 s
  static constexpr int kBuckets = kPerDecade * kDecades + 1;

  struct Class {
    std::uint64_t events = 0;
    double busy_s = 0.0;
    std::array<std::uint32_t, kBuckets> hist{};
  };
  std::array<Class, kEventClasses> cls_{};
};

// -- Fingerprints ------------------------------------------------------------------

/// FNV-1a over "name=<hexfloat>\n" rows: equal iff every summary value is
/// bit-identical, in the same order, under the same names.
[[nodiscard]] std::string fingerprint(
    const std::vector<std::pair<std::string, double>>& summary);

}  // namespace perfbench

#include "probe.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

// -- Counting global operator new (the bench_hotpath idiom) -------------------
// Each thread counts into its own cache-line slot (threads beyond kSlots
// share), so counting a sharded world's worker threads adds no contended
// cache line; readers sum the slots.
namespace {
struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> bytes{0};
};
constexpr std::size_t kSlots = 64;
std::array<AllocSlot, kSlots> g_slots;
std::atomic<std::size_t> g_next_slot{0};
std::atomic<bool> g_counting{false};
thread_local AllocSlot* t_slot = nullptr;
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    if (t_slot == nullptr) {
      t_slot = &g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) %
                        kSlots];
    }
    t_slot->count.fetch_add(1, std::memory_order_relaxed);
    t_slot->bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void set_alloc_counting(bool on) noexcept {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCounts alloc_counts() noexcept {
  AllocCounts sum;
  for (const AllocSlot& s : g_slots) {
    sum.count += s.count.load(std::memory_order_relaxed);
    sum.bytes += s.bytes.load(std::memory_order_relaxed);
  }
  return sum;
}

double rss_mb() {
  // Plain syscalls: sampling must not allocate while allocations count.
  char buf[128] = {};
  const int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0.0;
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return 0.0;
  char* end = nullptr;
  std::strtol(buf, &end, 10);  // total program size; resident follows
  const long pages_resident = std::strtol(end, nullptr, 10);
  return static_cast<double>(pages_resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

void trim_heap() { ::malloc_trim(0); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

EventClass classify_order(int order) noexcept {
  switch (order) {
    case -1: return EventClass::Fault;
    case 0: return EventClass::Substrate;
    case 1: return EventClass::Oda;
    case 2: return EventClass::Exchange;
    case 1000: return EventClass::Publish;
    default: return EventClass::Other;
  }
}

const char* class_name(EventClass c) noexcept {
  switch (c) {
    case EventClass::Fault: return "fault";
    case EventClass::Substrate: return "substrate";
    case EventClass::Oda: return "core.oda";
    case EventClass::Exchange: return "core.exchange";
    case EventClass::Publish: return "serve.publish";
    case EventClass::Other: break;
  }
  return "other";
}

void EngineProfile::record(int order, double wall_s) noexcept {
  Class& c = cls_[static_cast<std::size_t>(classify_order(order))];
  ++c.events;
  c.busy_s += wall_s;
  // Bucket b covers (10^((b-1)/64), 10^(b/64)] ns; bucket 0 takes <= 1 ns.
  const double ns = wall_s * 1e9;
  int b = ns <= 1.0 ? 0 : static_cast<int>(std::ceil(std::log10(ns) * kPerDecade));
  b = std::clamp(b, 0, kBuckets - 1);
  ++c.hist[static_cast<std::size_t>(b)];
}

void EngineProfile::merge(const EngineProfile& other) noexcept {
  for (std::size_t k = 0; k < kEventClasses; ++k) {
    cls_[k].events += other.cls_[k].events;
    cls_[k].busy_s += other.cls_[k].busy_s;
    for (std::size_t b = 0; b < cls_[k].hist.size(); ++b) {
      cls_[k].hist[b] += other.cls_[k].hist[b];
    }
  }
}

double EngineProfile::p99_us(EventClass c) const noexcept {
  const Class& k = cls_[static_cast<std::size_t>(c)];
  if (k.events == 0) return 0.0;
  // Smallest bucket whose cumulative count reaches 99% of the events.
  const double want = 0.99 * static_cast<double>(k.events);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += k.hist[static_cast<std::size_t>(b)];
    if (static_cast<double>(seen) >= want) {
      return std::pow(10.0, static_cast<double>(b) / kPerDecade) * 1e-3;
    }
  }
  return std::pow(10.0, static_cast<double>(kBuckets - 1) / kPerDecade) * 1e-3;
}

std::uint64_t EngineProfile::total_events() const noexcept {
  std::uint64_t n = 0;
  for (const Class& c : cls_) n += c.events;
  return n;
}

double EngineProfile::total_busy_s() const noexcept {
  double s = 0.0;
  for (const Class& c : cls_) s += c.busy_s;
  return s;
}

std::string fingerprint(
    const std::vector<std::pair<std::string, double>>& summary) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  char row[160];
  for (const auto& [name, value] : summary) {
    const int n = std::snprintf(row, sizeof row, "%s=%a\n", name.c_str(), value);
    for (int i = 0; i < n && i < static_cast<int>(sizeof row); ++i) {
      h = (h ^ static_cast<unsigned char>(row[i])) * 0x100000001b3ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace perfbench

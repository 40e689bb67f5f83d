// FNV-1a 64 over the `%a` spelling of a run's numbers.
//
// The trajectory pins of the substrate suites feed every harvested
// statistic of a short run into one Fingerprint, field by field and epoch
// by epoch, and compare the value with the digest of a known-good build.
// `%a` spells a double's exact bits, so any change to a decision, a
// constant or a float accumulation moves the digest. Strings (key names,
// rendered text) go in byte for byte. Each field ends with a '|'.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string_view>

namespace sa::test::support {

class Fingerprint {
 public:
  void add(double v) { format("%a", v); }
  void add(std::size_t v) { format("%zu", v); }
  void add(std::string_view s) {
    for (const char c : s) mix(c);
    mix('|');
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  template <typename T>
  void format(const char* fmt, T v) {
    char buf[64];
    const int n = std::snprintf(buf, sizeof buf, fmt, v);
    add(std::string_view(buf, static_cast<std::size_t>(n)));
  }
  void mix(char c) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

}  // namespace sa::test::support

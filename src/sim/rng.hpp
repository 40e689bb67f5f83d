// Deterministic random-number generation for reproducible simulation.
//
// Every stochastic component in the library draws from an sa::sim::Rng that
// is seeded explicitly; there is no ambient global randomness. Independent
// sub-streams can be derived with Rng::fork(tag) so that adding a new
// consumer of randomness does not perturb the draws seen by existing ones
// (a standard trick for reproducible parallel simulation).
#pragma once

#include <cstdint>
#include <cmath>
#include <limits>
#include <string_view>

namespace sa::sim {

/// Counter-free 64-bit mixing function (Stafford variant 13 / splitmix64
/// finaliser). Used for seeding and stream derivation.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** — fast, high-quality, 256-bit-state generator.
/// Satisfies std::uniform_random_bit_generator so it can be plugged into
/// <random> distributions, though the convenience members below are
/// preferred inside the library (stable across standard libraries).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words by iterating splitmix64 over `seed`.
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) noexcept {
    std::uint64_t x = seed;
    for (auto& w : s_) {
      x = mix64(x);
      w = x | 1ULL;  // never all-zero
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Full generator state for checkpointing: the four xoshiro words plus
  /// the Marsaglia normal() spare — omitting the spare would let two
  /// generators whose next normal() draws differ attest as equal.
  struct State {
    std::uint64_t s[4]{};
    double spare = 0.0;
    bool has_spare = false;
  };
  [[nodiscard]] State state() const noexcept {
    State st;
    for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
    st.spare = spare_;
    st.has_spare = has_spare_;
    return st;
  }

  /// Derives an independent generator; `tag` distinguishes sibling streams.
  [[nodiscard]] Rng fork(std::uint64_t tag) const noexcept {
    return Rng{mix64(s_[0] ^ mix64(tag ^ 0xc0113c7153a7eULL))};
  }
  /// Convenience: fork keyed by a short string (e.g. component name).
  [[nodiscard]] Rng fork(std::string_view tag) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : tag) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return fork(h);
  }

  // -- Convenience distributions (stable across platforms) -----------------

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }
  /// Uniform integer in [0, n). Requires n > 0. Lemire-style rejection-free
  /// bounded draw (bias negligible for simulation purposes at 64 bits).
  std::uint64_t below(std::uint64_t n) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>((*this)()) * n) >> 64);
  }
  /// Bernoulli trial with probability p.
  bool chance(double p) noexcept { return uniform() < p; }
  /// Exponential variate with given mean (> 0).
  double exponential(double mean) noexcept {
    return -mean * std::log1p(-uniform());
  }
  /// Standard normal via Marsaglia polar method.
  double normal() noexcept {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    has_spare_ = true;
    return u * m;
  }
  /// Normal with mean/stddev.
  double normal(double mean, double sd) noexcept { return mean + sd * normal(); }
  /// Pareto (heavy-tailed) variate with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha) noexcept {
    return xm / std::pow(1.0 - uniform(), 1.0 / alpha);
  }
  /// Poisson variate (Knuth's method; fine for the small means used here).
  int poisson(double mean) noexcept {
    const double limit = std::exp(-mean);
    double prod = uniform();
    int n = 0;
    while (prod > limit) {
      ++n;
      prod *= uniform();
    }
    return n;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace sa::sim

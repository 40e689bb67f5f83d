// Statistics accumulators used by the simulation kernel and by awareness
// processes that summarise observations.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace sa::sim {

/// Streaming mean/variance/min/max via Welford's algorithm.
/// O(1) space, numerically stable; suitable for long-running monitors.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }
  void reset() noexcept { *this = RunningStats{}; }
  /// Merges another accumulator (parallel Welford combination).
  void merge(const RunningStats& o) noexcept {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double d = o.mean_ - mean_;
    const auto na = static_cast<double>(n_), nb = static_cast<double>(o.n_);
    mean_ += d * nb / (na + nb);
    m2_ += o.m2_ + d * d * na * nb / (na + nb);
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    sum_ += o.sum_;
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const noexcept {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0, m2_ = 0.0, sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Time-weighted average of a piecewise-constant signal (e.g. queue length,
/// number of busy servers). Call `set(t, value)` whenever the signal changes;
/// `mean(t_now)` integrates up to the query time.
class TimeWeighted {
 public:
  void set(double t, double value) noexcept {
    if (has_value_) integral_ += value_ * (t - last_t_);
    else start_t_ = t;
    value_ = value;
    last_t_ = t;
    has_value_ = true;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  [[nodiscard]] double current() const noexcept { return value_; }
  [[nodiscard]] double mean(double t_now) const noexcept {
    if (!has_value_) return 0.0;
    const double span = t_now - start_t_;
    if (span <= 0.0) return value_;
    return (integral_ + value_ * (t_now - last_t_)) / span;
  }
  [[nodiscard]] double min() const noexcept { return has_value_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return has_value_ ? max_ : 0.0; }

 private:
  bool has_value_ = false;
  double value_ = 0.0, last_t_ = 0.0, start_t_ = 0.0, integral_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the
/// edge bins. Supports quantile queries (linear interpolation within bin).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), counts_(bins, 0) {}

  void add(double x) noexcept {
    const auto b = bin_of(x);
    ++counts_[b];
    ++total_;
  }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t b) const noexcept {
    return counts_[b];
  }
  [[nodiscard]] double bin_lo(std::size_t b) const noexcept {
    return lo_ + width() * static_cast<double>(b);
  }
  /// q in [0,1]; returns an approximation of the q-quantile.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (total_ == 0) return 0.0;
    const double target = q * static_cast<double>(total_);
    double acc = 0.0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      const double next = acc + static_cast<double>(counts_[b]);
      if (next >= target) {
        const double frac =
            counts_[b] ? (target - acc) / static_cast<double>(counts_[b]) : 0.0;
        return bin_lo(b) + frac * width();
      }
      acc = next;
    }
    return hi_;
  }

 private:
  [[nodiscard]] double width() const noexcept {
    return (hi_ - lo_) / static_cast<double>(counts_.size());
  }
  [[nodiscard]] std::size_t bin_of(double x) const noexcept {
    if (x <= lo_) return 0;
    if (x >= hi_) return counts_.size() - 1;
    return std::min(counts_.size() - 1,
                    static_cast<std::size_t>((x - lo_) / width()));
  }
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace sa::sim

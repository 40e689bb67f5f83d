// Point estimators for scalar signals.
//
// These are the simplest "model building" blocks used by awareness
// processes: exponentially weighted moving averages for recency-weighted
// estimates, one of which also tracks dispersion so callers can reason
// about their own confidence (a prerequisite for meta-self-awareness: a
// model that knows how good it is).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace sa::learn {

/// Exponentially weighted moving average with bias correction for the
/// warm-up phase (as in Adam-style estimators).
class Ewma {
 public:
  /// `alpha` in (0,1]: weight of the newest sample. Larger = more reactive.
  explicit Ewma(double alpha = 0.1) : alpha_(alpha) {}

  void add(double x) noexcept {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
    weight_ = alpha_ + (1.0 - alpha_) * weight_;
    ++n_;
  }
  /// Bias-corrected estimate; 0 before any sample.
  [[nodiscard]] double value() const noexcept {
    return weight_ > 0.0 ? value_ / weight_ : 0.0;
  }
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  void reset() noexcept {
    value_ = 0.0;
    weight_ = 0.0;
    n_ = 0;
  }

 private:
  double alpha_;
  double value_ = 0.0;
  double weight_ = 0.0;
  std::size_t n_ = 0;
};

/// EWMA of value and of squared deviation — gives a recency-weighted
/// mean *and* an uncertainty estimate.
class EwmaVar {
 public:
  explicit EwmaVar(double alpha = 0.1) : mean_(alpha), var_(alpha) {}

  void add(double x) noexcept {
    const double prev = mean_.value();
    mean_.add(x);
    const double d = x - (mean_.count() > 1 ? prev : mean_.value());
    var_.add(d * d);
  }
  [[nodiscard]] double mean() const noexcept { return mean_.value(); }
  [[nodiscard]] double variance() const noexcept { return var_.value(); }
  [[nodiscard]] double stddev() const noexcept {
    return std::sqrt(std::max(0.0, variance()));
  }
  [[nodiscard]] std::size_t count() const noexcept { return mean_.count(); }
  void reset() noexcept {
    mean_.reset();
    var_.reset();
  }

 private:
  Ewma mean_;
  Ewma var_;
};

}  // namespace sa::learn

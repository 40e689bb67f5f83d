// Concept-drift detection.
//
// The paper stresses "ongoing change" as a defining complexity (Section II).
// Drift detectors are how a self-aware process notices that its own model
// has gone stale — the trigger for model resets and for meta-level strategy
// switching.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>

namespace sa::learn {

/// Page-Hinkley test for mean increase/decrease in a stream.
/// Fires when the cumulative deviation from the running mean exceeds
/// `lambda` after allowing a tolerance `delta`.
class PageHinkley {
 public:
  explicit PageHinkley(double delta = 0.005, double lambda = 50.0)
      : delta_(delta), lambda_(lambda) {}

  /// Feeds a sample; returns true iff drift is detected (detector then
  /// resets itself so detections are edge-triggered).
  bool add(double x) {
    ++n_;
    mean_ += (x - mean_) / static_cast<double>(n_);
    // Two-sided: track both a rising and a falling cumulative sum.
    up_ = std::max(0.0, up_ + x - mean_ - delta_);
    down_ = std::max(0.0, down_ - (x - mean_) - delta_);
    if (up_ > lambda_ || down_ > lambda_) {
      reset();
      return true;
    }
    return false;
  }
  void reset() {
    n_ = 0;
    mean_ = up_ = down_ = 0.0;
  }
  [[nodiscard]] std::string name() const { return "page-hinkley"; }

 private:
  double delta_, lambda_;
  std::size_t n_ = 0;
  double mean_ = 0.0, up_ = 0.0, down_ = 0.0;
};

}  // namespace sa::learn

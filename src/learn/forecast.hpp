// One-step-ahead forecasters for time-awareness.
//
// Time-awareness in the framework (Section IV of the paper, level T) is the
// capability to use knowledge of history to anticipate the future. These
// forecasters share a minimal interface so the meta-self-awareness layer
// can race them against each other and switch at run time.
#pragma once

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sim/ring.hpp"

namespace sa::learn {

/// Interface: incremental one-step-ahead scalar forecaster.
class Forecaster {
 public:
  virtual ~Forecaster() = default;
  /// Feed the next observed value.
  virtual void observe(double x) = 0;
  /// Predict the next value (h=1) or h steps ahead.
  [[nodiscard]] virtual double forecast(std::size_t h = 1) const = 0;
  /// Identifier for explanation traces.
  [[nodiscard]] virtual std::string name() const = 0;
  /// Observations consumed so far.
  [[nodiscard]] virtual std::size_t count() const = 0;
};

/// Predicts the last observed value (random-walk baseline).
class NaiveForecaster final : public Forecaster {
 public:
  void observe(double x) override {
    last_ = x;
    ++n_;
  }
  [[nodiscard]] double forecast(std::size_t = 1) const override {
    return last_;
  }
  [[nodiscard]] std::string name() const override { return "naive"; }
  [[nodiscard]] std::size_t count() const override { return n_; }

 private:
  double last_ = 0.0;
  std::size_t n_ = 0;
};

/// Simple exponential smoothing (level only).
class SesForecaster final : public Forecaster {
 public:
  explicit SesForecaster(double alpha = 0.3) : alpha_(alpha) {}
  void observe(double x) override {
    level_ = n_ == 0 ? x : alpha_ * x + (1.0 - alpha_) * level_;
    ++n_;
  }
  [[nodiscard]] double forecast(std::size_t = 1) const override {
    return level_;
  }
  [[nodiscard]] std::string name() const override { return "ses"; }
  [[nodiscard]] std::size_t count() const override { return n_; }

 private:
  double alpha_;
  double level_ = 0.0;
  std::size_t n_ = 0;
};

/// Holt's linear trend method (level + trend).
class HoltForecaster final : public Forecaster {
 public:
  HoltForecaster(double alpha = 0.3, double beta = 0.1)
      : alpha_(alpha), beta_(beta) {}
  void observe(double x) override {
    if (n_ == 0) {
      level_ = x;
    } else if (n_ == 1) {
      trend_ = x - level_;
      level_ = x;
    } else {
      const double prev_level = level_;
      level_ = alpha_ * x + (1.0 - alpha_) * (level_ + trend_);
      trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
    }
    ++n_;
  }
  [[nodiscard]] double forecast(std::size_t h = 1) const override {
    return level_ + static_cast<double>(h) * trend_;
  }
  [[nodiscard]] std::string name() const override { return "holt"; }
  [[nodiscard]] std::size_t count() const override { return n_; }

 private:
  double alpha_, beta_;
  double level_ = 0.0, trend_ = 0.0;
  std::size_t n_ = 0;
};

/// Holt-Winters additive seasonal method with fixed period.
class HoltWintersForecaster final : public Forecaster {
 public:
  HoltWintersForecaster(std::size_t period, double alpha = 0.3,
                        double beta = 0.05, double gamma = 0.1)
      : period_(period), alpha_(alpha), beta_(beta), gamma_(gamma),
        seasonal_(period, 0.0) {}

  void observe(double x) override {
    const std::size_t s = n_ % period_;
    if (n_ < period_) {
      // Warm-up: accumulate one full season before smoothing.
      seasonal_[s] = x;
      warm_sum_ += x;
      if (n_ + 1 == period_) {
        level_ = warm_sum_ / static_cast<double>(period_);
        for (auto& v : seasonal_) v -= level_;
      }
    } else {
      const double prev_level = level_;
      level_ = alpha_ * (x - seasonal_[s]) +
               (1.0 - alpha_) * (level_ + trend_);
      trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
      seasonal_[s] = gamma_ * (x - level_) + (1.0 - gamma_) * seasonal_[s];
    }
    ++n_;
  }
  [[nodiscard]] double forecast(std::size_t h = 1) const override {
    if (n_ < period_) return n_ ? seasonal_[(n_ - 1) % period_] : 0.0;
    const std::size_t s = (n_ + h - 1) % period_;
    return level_ + static_cast<double>(h) * trend_ + seasonal_[s];
  }
  [[nodiscard]] std::string name() const override { return "holt-winters"; }
  [[nodiscard]] std::size_t count() const override { return n_; }
  [[nodiscard]] std::size_t period() const noexcept { return period_; }

 private:
  std::size_t period_;
  double alpha_, beta_, gamma_;
  std::vector<double> seasonal_;
  double level_ = 0.0, trend_ = 0.0, warm_sum_ = 0.0;
  std::size_t n_ = 0;
};

/// Tracks a forecaster's own mean absolute error — the self-assessment
/// hook used by meta-self-awareness to compare competing models.
///
/// `horizon` sets which h-step-ahead prediction is scored: a consumer that
/// acts on forecast(2) (e.g. an autoscaler with provisioning lag) should
/// rank models by their 2-step error, where trend/seasonal models beat the
/// naive lag that usually wins at h=1.
class ScoredForecaster {
 public:
  explicit ScoredForecaster(std::unique_ptr<Forecaster> f,
                            std::size_t horizon = 1)
      : f_(std::move(f)),
        horizon_(horizon == 0 ? 1 : horizon),
        pending_(horizon_) {}

  /// Scores the prediction issued `horizon` observations ago against `x`,
  /// then feeds `x` and queues a fresh prediction.
  void observe(double x) {
    if (pending_.size() == horizon_) {
      mae_sum_ += std::fabs(pending_.front() - x);
      ++scored_;
    }
    f_->observe(x);
    pending_.push(f_->forecast(horizon_));
  }
  [[nodiscard]] double forecast(std::size_t h = 1) const {
    return f_->forecast(h);
  }
  [[nodiscard]] double mae() const noexcept {
    return scored_ ? mae_sum_ / static_cast<double>(scored_) : 0.0;
  }
  [[nodiscard]] std::size_t scored() const noexcept { return scored_; }
  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }
  [[nodiscard]] const Forecaster& model() const noexcept { return *f_; }

 private:
  std::unique_ptr<Forecaster> f_;
  std::size_t horizon_;
  sim::Ring<double> pending_;  ///< predictions awaiting their target
  double mae_sum_ = 0.0;
  std::size_t scored_ = 0;
};

}  // namespace sa::learn

// One-step-ahead forecasters for time-awareness.
//
// Time-awareness in the framework (Section IV of the paper, level T) is the
// capability to use knowledge of history to anticipate the future. Four
// models compete: naive (last value), simple exponential smoothing, Holt's
// linear trend and additive Holt-Winters. Their update rules are written
// once, in `rules`, and used two ways: by the standalone forecasters, and
// by ForecastEnsemble, the flat record in which time awareness races all
// of them over one signal and scores each by its own error — the
// self-assessment the meta-self-awareness layer reads.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace sa::learn {

/// Update and forecast rules; `n` is the number of observations the state
/// has already folded in.
namespace rules {

inline double ses(double level, double x, std::size_t n, double alpha) {
  return n == 0 ? x : alpha * x + (1.0 - alpha) * level;
}

inline void holt(double& level, double& trend, double x, std::size_t n,
                 double alpha, double beta) {
  if (n == 0) {
    level = x;
  } else if (n == 1) {
    trend = x - level;
    level = x;
  } else {
    const double prev_level = level;
    level = alpha * x + (1.0 - alpha) * (level + trend);
    trend = beta * (level - prev_level) + (1.0 - beta) * trend;
  }
}

/// `season` holds `period` values.
inline void holt_winters(double& level, double& trend, double& warm_sum,
                         double* season, std::size_t period, double x,
                         std::size_t n, double alpha, double beta,
                         double gamma) {
  const std::size_t s = n % period;
  if (n < period) {
    // Warm-up: accumulate one full season before smoothing.
    season[s] = x;
    warm_sum += x;
    if (n + 1 == period) {
      level = warm_sum / static_cast<double>(period);
      for (std::size_t i = 0; i < period; ++i) season[i] -= level;
    }
  } else {
    const double prev_level = level;
    level = alpha * (x - season[s]) + (1.0 - alpha) * (level + trend);
    trend = beta * (level - prev_level) + (1.0 - beta) * trend;
    season[s] = gamma * (x - level) + (1.0 - gamma) * season[s];
  }
}

inline double holt_winters_forecast(double level, double trend,
                                    const double* season, std::size_t period,
                                    std::size_t n, std::size_t h) {
  if (n < period) return n ? season[(n - 1) % period] : 0.0;
  const std::size_t s = (n + h - 1) % period;
  return level + static_cast<double>(h) * trend + season[s];
}

}  // namespace rules

/// Predicts the last observed value (random-walk baseline).
class NaiveForecaster {
 public:
  void observe(double x) {
    last_ = x;
    ++n_;
  }
  [[nodiscard]] double forecast(std::size_t = 1) const { return last_; }
  [[nodiscard]] std::string name() const { return "naive"; }
  [[nodiscard]] std::size_t count() const { return n_; }

 private:
  double last_ = 0.0;
  std::size_t n_ = 0;
};

/// Simple exponential smoothing (level only).
class SesForecaster {
 public:
  explicit SesForecaster(double alpha = 0.3) : alpha_(alpha) {}
  void observe(double x) { level_ = rules::ses(level_, x, n_++, alpha_); }
  [[nodiscard]] double forecast(std::size_t = 1) const { return level_; }
  [[nodiscard]] std::string name() const { return "ses"; }
  [[nodiscard]] std::size_t count() const { return n_; }

 private:
  double alpha_;
  double level_ = 0.0;
  std::size_t n_ = 0;
};

/// Holt's linear trend method (level + trend).
class HoltForecaster {
 public:
  HoltForecaster(double alpha = 0.3, double beta = 0.1)
      : alpha_(alpha), beta_(beta) {}
  void observe(double x) {
    rules::holt(level_, trend_, x, n_++, alpha_, beta_);
  }
  [[nodiscard]] double forecast(std::size_t h = 1) const {
    return level_ + static_cast<double>(h) * trend_;
  }
  [[nodiscard]] std::string name() const { return "holt"; }
  [[nodiscard]] std::size_t count() const { return n_; }

 private:
  double alpha_, beta_;
  double level_ = 0.0, trend_ = 0.0;
  std::size_t n_ = 0;
};

/// Holt-Winters additive seasonal method with fixed period.
class HoltWintersForecaster {
 public:
  HoltWintersForecaster(std::size_t period, double alpha = 0.3,
                        double beta = 0.05, double gamma = 0.1)
      : period_(period), alpha_(alpha), beta_(beta), gamma_(gamma),
        seasonal_(period, 0.0) {}

  void observe(double x) {
    rules::holt_winters(level_, trend_, warm_sum_, seasonal_.data(), period_,
                        x, n_++, alpha_, beta_, gamma_);
  }
  [[nodiscard]] double forecast(std::size_t h = 1) const {
    return rules::holt_winters_forecast(level_, trend_, seasonal_.data(),
                                        period_, n_, h);
  }
  [[nodiscard]] std::string name() const { return "holt-winters"; }
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] std::size_t period() const noexcept { return period_; }

 private:
  std::size_t period_;
  double alpha_, beta_, gamma_;
  std::vector<double> seasonal_;
  double level_ = 0.0, trend_ = 0.0, warm_sum_ = 0.0;
  std::size_t n_ = 0;
};

/// Naive, SES, Holt and — when the shape has a period > 1 — Holt-Winters
/// (each at the standalone forecasters' default parameters) racing over
/// one signal, as one flat value. Every member tracks its own mean
/// absolute error at the shape's horizon: the prediction it made `horizon`
/// observations ago against the value that has just arrived. A consumer
/// acting on forecast(2), an autoscaler with provisioning lag say, should
/// rank models by their 2-step error, where trend and seasonal models beat
/// the naive lag that usually wins at h=1.
///
/// The predictions awaiting their target and the Holt-Winters season live
/// outside the record, in Shape::tail_size() doubles the owner keeps and
/// passes to every call (time awareness packs all its signals' tails into
/// one vector), so the record holds no pointer and never allocates.
class ForecastEnsemble {
 public:
  /// Member indices, in race order (ties go to the lower index).
  static constexpr std::size_t kNaive = 0, kSes = 1, kHolt = 2,
                               kHoltWinters = 3;

  /// What every ensemble of one owner shares.
  struct Shape {
    std::size_t horizon = 1;  ///< scored h-step error (0 counts as 1)
    std::size_t period = 0;   ///< > 1 adds the Holt-Winters member

    [[nodiscard]] std::size_t h() const noexcept {
      return horizon == 0 ? 1 : horizon;
    }
    [[nodiscard]] std::size_t members() const noexcept {
      return period > 1 ? 4 : 3;
    }
    /// Doubles of outside state: `h()` pending predictions per member,
    /// then the season.
    [[nodiscard]] std::size_t tail_size() const noexcept {
      return members() * h() + (period > 1 ? period : 0);
    }
  };

  /// Scores each member's due prediction against `x`, folds `x` into every
  /// member, and queues each member's fresh h-step prediction.
  void observe(double x, const Shape& s, double* tail);

  /// `member`'s h-step forecast.
  [[nodiscard]] double forecast(std::size_t member, std::size_t h,
                                const Shape& s, const double* tail) const;
  /// The member with the lowest error; member 0 until any is scored.
  [[nodiscard]] std::size_t best(const Shape& s) const;
  /// `member`'s mean absolute error (0 until scored).
  [[nodiscard]] double mae(std::size_t member, const Shape& s) const {
    const std::size_t k = scored(s);
    return k ? mae_sum_[member] / static_cast<double>(k) : 0.0;
  }
  /// Predictions scored so far (the same for every member).
  [[nodiscard]] std::size_t scored(const Shape& s) const noexcept {
    return n_ > s.h() ? n_ - s.h() : 0;
  }
  /// Observations folded in.
  [[nodiscard]] std::size_t count() const noexcept { return n_; }

 private:
  static constexpr double kSesAlpha = 0.3;
  static constexpr double kHoltAlpha = 0.3, kHoltBeta = 0.1;
  static constexpr double kHwAlpha = 0.3, kHwBeta = 0.05, kHwGamma = 0.1;

  std::size_t n_ = 0;
  double last_ = 0.0;  ///< naive
  double ses_ = 0.0;   ///< SES level
  double holt_level_ = 0.0, holt_trend_ = 0.0;
  double hw_level_ = 0.0, hw_trend_ = 0.0, hw_warm_sum_ = 0.0;
  double mae_sum_[4] = {};
};

inline double ForecastEnsemble::forecast(std::size_t member, std::size_t h,
                                         const Shape& s,
                                         const double* tail) const {
  switch (member) {
    case kNaive:
      return last_;
    case kSes:
      return ses_;
    case kHolt:
      return holt_level_ + static_cast<double>(h) * holt_trend_;
    default:
      return rules::holt_winters_forecast(hw_level_, hw_trend_,
                                          tail + s.members() * s.h(),
                                          s.period, n_, h);
  }
}

inline void ForecastEnsemble::observe(double x, const Shape& s,
                                      double* tail) {
  const std::size_t h = s.h(), m = s.members();
  // Member i's pending predictions are tail[i*h, i*h + h): the one made
  // after observation k sits at k % h, so the one due now (made h
  // observations ago) is where this observation's prediction goes.
  const std::size_t at = n_ % h;
  if (n_ >= h) {
    for (std::size_t i = 0; i < m; ++i) {
      mae_sum_[i] += std::fabs(tail[i * h + at] - x);
    }
  }
  last_ = x;
  ses_ = rules::ses(ses_, x, n_, kSesAlpha);
  rules::holt(holt_level_, holt_trend_, x, n_, kHoltAlpha, kHoltBeta);
  if (m == 4) {
    rules::holt_winters(hw_level_, hw_trend_, hw_warm_sum_, tail + m * h,
                        s.period, x, n_, kHwAlpha, kHwBeta, kHwGamma);
  }
  ++n_;
  for (std::size_t i = 0; i < m; ++i) {
    tail[i * h + at] = forecast(i, h, s, tail);
  }
}

inline std::size_t ForecastEnsemble::best(const Shape& s) const {
  if (scored(s) == 0) return 0;
  std::size_t b = 0;
  for (std::size_t i = 1; i < s.members(); ++i) {
    if (mae(i, s) < mae(b, s)) b = i;
  }
  return b;
}

}  // namespace sa::learn

// Multi-armed bandit policies.
//
// Bandits are the workhorse decision learners in the framework: a
// self-aware process that must pick among K discrete configurations and
// learn their value online (camera strategies, route choices, autoscaling
// step sizes...). The discounted variants remain competitive under the
// non-stationary environments the paper emphasises.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace sa::learn {

/// Interface: K-armed bandit policy with incremental reward updates.
class Bandit {
 public:
  virtual ~Bandit() = default;
  /// Chooses an arm in [0, arms()).
  virtual std::size_t select(sim::Rng& rng) = 0;
  /// Reports the reward obtained from `arm`.
  virtual void update(std::size_t arm, double reward) = 0;
  [[nodiscard]] virtual std::size_t arms() const = 0;
  /// Current value estimate of `arm` (for explanation / inspection).
  [[nodiscard]] virtual double value(std::size_t arm) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Forgets everything (used when a drift detector fires).
  virtual void reset() = 0;
};

/// ε-greedy with optional exponential ε decay.
class EpsilonGreedy final : public Bandit {
 public:
  EpsilonGreedy(std::size_t arms, double epsilon = 0.1, double decay = 1.0)
      : eps0_(epsilon), decay_(decay), q_(arms, 0.0), n_(arms, 0) {}

  std::size_t select(sim::Rng& rng) override {
    const double eps = eps0_ * std::pow(decay_, static_cast<double>(t_));
    ++t_;
    if (rng.chance(eps)) return rng.below(q_.size());
    return best();
  }
  void update(std::size_t arm, double reward) override {
    ++n_[arm];
    q_[arm] += (reward - q_[arm]) / static_cast<double>(n_[arm]);
  }
  [[nodiscard]] std::size_t arms() const override { return q_.size(); }
  [[nodiscard]] double value(std::size_t arm) const override { return q_[arm]; }
  [[nodiscard]] std::string name() const override { return "eps-greedy"; }
  void reset() override {
    std::fill(q_.begin(), q_.end(), 0.0);
    std::fill(n_.begin(), n_.end(), std::size_t{0});
    t_ = 0;
  }

 private:
  [[nodiscard]] std::size_t best() const {
    std::size_t b = 0;
    for (std::size_t a = 1; a < q_.size(); ++a) {
      if (q_[a] > q_[b] || (q_[a] == q_[b] && n_[a] < n_[b])) b = a;
    }
    return b;
  }
  double eps0_, decay_;
  std::vector<double> q_;
  std::vector<std::size_t> n_;
  std::size_t t_ = 0;
};

/// UCB1 (Auer et al.): optimism in the face of uncertainty.
class Ucb1 final : public Bandit {
 public:
  explicit Ucb1(std::size_t arms, double c = 1.4142135623730951)
      : c_(c), q_(arms, 0.0), n_(arms, 0) {}

  std::size_t select(sim::Rng&) override {
    ++t_;
    for (std::size_t a = 0; a < q_.size(); ++a) {
      if (n_[a] == 0) return a;  // play each arm once first
    }
    std::size_t best = 0;
    double best_u = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < q_.size(); ++a) {
      const double u =
          q_[a] + c_ * std::sqrt(std::log(static_cast<double>(t_)) /
                                 static_cast<double>(n_[a]));
      if (u > best_u) {
        best_u = u;
        best = a;
      }
    }
    return best;
  }
  void update(std::size_t arm, double reward) override {
    ++n_[arm];
    q_[arm] += (reward - q_[arm]) / static_cast<double>(n_[arm]);
  }
  [[nodiscard]] std::size_t arms() const override { return q_.size(); }
  [[nodiscard]] double value(std::size_t arm) const override { return q_[arm]; }
  [[nodiscard]] std::string name() const override { return "ucb1"; }
  void reset() override {
    std::fill(q_.begin(), q_.end(), 0.0);
    std::fill(n_.begin(), n_.end(), std::size_t{0});
    t_ = 0;
  }

 private:
  double c_;
  std::vector<double> q_;
  std::vector<std::size_t> n_;
  std::size_t t_ = 0;
};

/// Discounted UCB (Garivier & Moulines): value and count estimates decay
/// geometrically, keeping the policy responsive to reward drift.
class DiscountedUcb final : public Bandit {
 public:
  DiscountedUcb(std::size_t arms, double gamma = 0.98, double c = 1.4142)
      : gamma_(gamma), c_(c), w_(arms, 0.0), s_(arms, 0.0) {}

  std::size_t select(sim::Rng&) override {
    for (std::size_t a = 0; a < w_.size(); ++a) {
      if (w_[a] <= 0.0) return a;
    }
    double total_w = 0.0;
    for (double w : w_) total_w += w;
    std::size_t best = 0;
    double best_u = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < w_.size(); ++a) {
      const double u = s_[a] / w_[a] + c_ * std::sqrt(std::log(total_w) / w_[a]);
      if (u > best_u) {
        best_u = u;
        best = a;
      }
    }
    return best;
  }
  void update(std::size_t arm, double reward) override {
    for (std::size_t a = 0; a < w_.size(); ++a) {
      w_[a] *= gamma_;
      s_[a] *= gamma_;
    }
    w_[arm] += 1.0;
    s_[arm] += reward;
  }
  [[nodiscard]] std::size_t arms() const override { return w_.size(); }
  [[nodiscard]] double value(std::size_t arm) const override {
    return w_[arm] > 0.0 ? s_[arm] / w_[arm] : 0.0;
  }
  [[nodiscard]] std::string name() const override { return "d-ucb"; }
  void reset() override {
    std::fill(w_.begin(), w_.end(), 0.0);
    std::fill(s_.begin(), s_.end(), 0.0);
  }

 private:
  double gamma_, c_;
  std::vector<double> w_;  ///< discounted pull counts
  std::vector<double> s_;  ///< discounted reward sums
};

}  // namespace sa::learn

// Attention: directing limited monitoring resources.
//
// Preden et al. [55] (and the psychology literature the paper draws on)
// tie self-awareness to attention: a resource-constrained system cannot
// observe everything, so it must choose what to attend to. The
// AttentionManager selects, each step, which of the registered signals to
// actually sample, under a budget. The Adaptive strategy allocates
// attention by expected information value: volatile signals and signals
// not sampled for a while score higher. Experiment E9 compares strategies.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "learn/estimators.hpp"
#include "sim/rng.hpp"

namespace sa::core {

class AttentionManager {
 public:
  enum class Strategy {
    All,        ///< ignore the budget; sample everything (upper bound)
    RoundRobin, ///< cycle through signals uniformly
    Random,     ///< sample a uniform random subset
    Adaptive,   ///< value-of-information: volatility + staleness
  };

  /// `budget` — max signals sampled per step (ignored by All).
  AttentionManager(Strategy strategy, std::size_t budget)
      : strategy_(strategy), budget_(budget) {}

  /// Declares a signal that may be attended to; returns its index in
  /// registration order (the existing index for a repeated name).
  std::size_t register_signal(const std::string& name);

  /// Chooses which signals to sample this step, as registration indices.
  /// The reference is valid until the next select().
  [[nodiscard]] const std::vector<std::size_t>& select(sim::Rng& rng);

  /// Reports the value obtained for sampled signal `index` (drives the
  /// volatility model behind Adaptive). Unknown indices are ignored.
  void feed(std::size_t index, double value);

  /// Name of the signal registered at `index`.
  [[nodiscard]] const std::string& name(std::size_t index) const {
    return order_[index];
  }
  [[nodiscard]] Strategy strategy() const noexcept { return strategy_; }
  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }
  [[nodiscard]] std::size_t signals() const noexcept { return order_.size(); }

 private:
  struct SignalState {
    learn::Ewma volatility{0.2};
    double last_value = 0.0;
    bool has_value = false;
    std::size_t staleness = 0;  ///< steps since last sampled
  };

  Strategy strategy_;
  std::size_t budget_;
  std::vector<std::string> order_;     // registration order
  std::vector<SignalState> state_;     // parallel to order_
  std::size_t rr_cursor_ = 0;
  // select() scratch, reused every step.
  std::vector<std::size_t> chosen_;
  std::vector<std::size_t> shuffle_;
  std::vector<std::pair<double, std::size_t>> scored_;
};

}  // namespace sa::core

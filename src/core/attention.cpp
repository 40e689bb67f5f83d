#include "core/attention.hpp"

#include <algorithm>
#include <cmath>

namespace sa::core {

std::size_t AttentionManager::register_signal(const std::string& name) {
  const auto it = std::find(order_.begin(), order_.end(), name);
  if (it != order_.end()) {
    return static_cast<std::size_t>(it - order_.begin());
  }
  order_.push_back(name);
  state_.emplace_back();
  return order_.size() - 1;
}

const std::vector<std::size_t>& AttentionManager::select(sim::Rng& rng) {
  chosen_.clear();
  const std::size_t n = order_.size();
  if (n == 0) return chosen_;
  const std::size_t k = std::min(budget_, n);

  switch (strategy_) {
    case Strategy::All:
      for (std::size_t i = 0; i < n; ++i) chosen_.push_back(i);
      break;
    case Strategy::RoundRobin:
      for (std::size_t i = 0; i < k; ++i) {
        chosen_.push_back((rr_cursor_ + i) % n);
      }
      rr_cursor_ = (rr_cursor_ + k) % n;
      break;
    case Strategy::Random: {
      // A partial Fisher-Yates shuffle of the identity, fresh every step.
      shuffle_.resize(n);
      for (std::size_t i = 0; i < n; ++i) shuffle_[i] = i;
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j = i + rng.below(n - i);
        std::swap(shuffle_[i], shuffle_[j]);
        chosen_.push_back(shuffle_[i]);
      }
      break;
    }
    case Strategy::Adaptive: {
      // Score = recency-weighted volatility + staleness pressure. The
      // staleness term guarantees every signal is eventually sampled
      // (no starvation), the volatility term prioritises where change
      // is actually happening.
      scored_.clear();
      for (std::size_t i = 0; i < n; ++i) {
        const SignalState& s = state_[i];
        const double sc = s.volatility.value() +
                          0.1 * static_cast<double>(s.staleness);
        scored_.emplace_back(sc, i);
      }
      std::partial_sort(scored_.begin(),
                        scored_.begin() + static_cast<std::ptrdiff_t>(k),
                        scored_.end(), [](const auto& a, const auto& b) {
                          return a.first != b.first ? a.first > b.first
                                                    : a.second < b.second;
                        });
      for (std::size_t i = 0; i < k; ++i) chosen_.push_back(scored_[i].second);
      break;
    }
  }

  // Update staleness counters.
  for (SignalState& s : state_) ++s.staleness;
  for (const std::size_t i : chosen_) state_[i].staleness = 0;
  return chosen_;
}

void AttentionManager::feed(std::size_t index, double value) {
  if (index >= state_.size()) return;
  SignalState& s = state_[index];
  if (s.has_value) s.volatility.add(std::fabs(value - s.last_value));
  s.last_value = value;
  s.has_value = true;
}

}  // namespace sa::core

// Observations: what one observe phase sampled, stored densely.
//
// An agent's sensors are named signals. The SignalTable interns their
// names once; a signal's *slot* is its registration index, so slots stay
// put as signals are added. An Observation is one value per slot, NaN
// where the signal was not sampled this step (attention skipped it, or the
// sensor dropped out). Awareness processes keep their per-signal state in
// vectors indexed by slot and walk an observation in ascending signal-name
// order (SignalTable::by_name()), the order that fixes which knowledge key
// is written first and which stimulus event comes first.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace sa::core {

/// The names of the signals an agent can sample, by slot.
class SignalTable {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Slot of `name`, registering it (as the next slot) if new.
  std::size_t add(std::string_view name);
  /// Slot of `name`, or npos: a binary search over by_name().
  [[nodiscard]] std::size_t find(std::string_view name) const;

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }
  [[nodiscard]] const std::string& name(std::size_t slot) const {
    return names_[slot];
  }
  /// Every slot, in ascending name order. Built on first use after the
  /// table grows (registering sensors allocates no index), so a table is
  /// not for concurrent readers.
  [[nodiscard]] const std::vector<std::uint32_t>& by_name() const;

 private:
  std::vector<std::string> names_;
  mutable std::vector<std::uint32_t> by_name_;
};

/// The sensor samples gathered in one observe phase over one SignalTable.
/// Iterating yields the sampled signals in name order. Refilling an
/// observation (clear(), then set()) allocates only when its table grew.
class Observation {
 public:
  /// One sampled signal.
  struct Sample {
    std::size_t slot;
    double value;
  };

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Sample;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Sample;

    /// Walks `order` (slots in name order) from `i`, skipping unsampled.
    const_iterator(const Observation* obs, const std::uint32_t* order,
                   std::size_t i, std::size_t n)
        : obs_(obs), order_(order), i_(i), n_(n) {
      skip();
    }
    Sample operator*() const {
      const std::size_t slot = order_[i_];
      return {slot, obs_->values_[slot]};
    }
    const_iterator& operator++() {
      ++i_;
      skip();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    void skip() {
      while (i_ < n_ && !obs_->has(order_[i_])) ++i_;
    }
    const Observation* obs_;
    const std::uint32_t* order_;
    std::size_t i_, n_;
  };

  /// An observation over no table: nothing sampled.
  Observation() = default;
  explicit Observation(const SignalTable& signals) : signals_(&signals) {
    clear();
  }

  /// The table the slots index (null for an empty observation).
  [[nodiscard]] const SignalTable* signals() const noexcept {
    return signals_;
  }
  /// Starts a new observe phase: one unsampled value per table slot.
  void clear() {
    values_.assign(signals_ != nullptr ? signals_->size() : 0, kUnsampled);
    sampled_ = 0;
  }
  /// Records `value` for `slot` (a NaN value leaves the slot unsampled).
  /// Requires a table and slot < signals()->size().
  void set(std::size_t slot, double value) {
    if (slot >= values_.size()) values_.resize(slot + 1, kUnsampled);
    sampled_ += static_cast<std::size_t>(!std::isnan(value)) -
                static_cast<std::size_t>(!std::isnan(values_[slot]));
    values_[slot] = value;
  }
  /// True when `slot` was sampled.
  [[nodiscard]] bool has(std::size_t slot) const noexcept {
    return slot < values_.size() && !std::isnan(values_[slot]);
  }
  /// The sampled value of `slot`; requires has(slot).
  [[nodiscard]] double value(std::size_t slot) const noexcept {
    return values_[slot];
  }
  /// Number of sampled signals.
  [[nodiscard]] std::size_t size() const noexcept { return sampled_; }
  [[nodiscard]] bool empty() const noexcept { return sampled_ == 0; }

  [[nodiscard]] const_iterator begin() const {
    if (sampled_ == 0) return {this, nullptr, 0, 0};
    const std::vector<std::uint32_t>& order = signals_->by_name();
    return {this, order.data(), 0, order.size()};
  }
  [[nodiscard]] const_iterator end() const {
    const std::size_t n = sampled_ == 0 ? 0 : signals_->by_name().size();
    return {this, nullptr, n, n};
  }

 private:
  static constexpr double kUnsampled = std::numeric_limits<double>::quiet_NaN();

  const SignalTable* signals_ = nullptr;
  std::vector<double> values_;  ///< by slot; NaN = unsampled
  std::size_t sampled_ = 0;
};

}  // namespace sa::core

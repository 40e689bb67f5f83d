#include "core/observation.hpp"

#include <algorithm>
#include <numeric>

namespace sa::core {

std::size_t SignalTable::add(std::string_view name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::size_t>(it - names_.begin());
  names_.emplace_back(name);
  return names_.size() - 1;
}

const std::vector<std::uint32_t>& SignalTable::by_name() const {
  if (by_name_.size() != names_.size()) {
    by_name_.resize(names_.size());
    std::iota(by_name_.begin(), by_name_.end(), std::uint32_t{0});
    std::sort(by_name_.begin(), by_name_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return names_[a] < names_[b];
              });
  }
  return by_name_;
}

std::size_t SignalTable::find(std::string_view name) const {
  const std::vector<std::uint32_t>& order = by_name();
  const auto pos = std::lower_bound(
      order.begin(), order.end(), name,
      [this](std::uint32_t s, std::string_view n) { return names_[s] < n; });
  return pos != order.end() && names_[*pos] == name ? *pos : npos;
}

}  // namespace sa::core

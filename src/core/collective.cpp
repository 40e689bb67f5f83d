#include "core/collective.hpp"

#include <algorithm>
#include <cmath>

namespace sa::core {

double CollectiveAggregator::max_error(double truth) const {
  double worst = 0.0;
  for (std::size_t i = 0; i < nodes(); ++i) {
    if (!alive(i)) continue;
    worst = std::max(worst, std::fabs(estimate(i) - truth));
  }
  return worst;
}

double CollectiveAggregator::mean_error(double truth) const {
  double acc = 0.0;
  std::size_t live = 0;
  for (std::size_t i = 0; i < nodes(); ++i) {
    if (!alive(i)) continue;
    acc += std::fabs(estimate(i) - truth);
    ++live;
  }
  return live ? acc / static_cast<double>(live) : 0.0;
}

// ---------------------------------------------------------------- central --

CentralAggregator::CentralAggregator(std::size_t n)
    : value_(n, 0.0), estimate_(n, 0.0), alive_(n, true) {}

void CentralAggregator::reset(const std::vector<double>& values) {
  value_ = values;
  estimate_.assign(values.size(), 0.0);
  alive_.assign(values.size(), true);
}

std::size_t CentralAggregator::round(sim::Rng&) {
  if (!alive_[0]) return 0;  // coordinator down: nothing happens
  double acc = 0.0;
  std::size_t reporting = 0, messages = 0;
  for (std::size_t i = 0; i < value_.size(); ++i) {
    if (!alive_[i]) continue;
    acc += value_[i];
    ++reporting;
    if (i != 0) ++messages;  // report to coordinator
  }
  const double mean = reporting ? acc / static_cast<double>(reporting) : 0.0;
  for (std::size_t i = 0; i < value_.size(); ++i) {
    if (!alive_[i]) continue;
    estimate_[i] = mean;
    if (i != 0) ++messages;  // broadcast back
  }
  return messages;
}

double CentralAggregator::estimate(std::size_t node) const {
  return estimate_[node];
}

void CentralAggregator::fail_node(std::size_t node) { alive_[node] = false; }

// ----------------------------------------------------------------- gossip --

GossipAggregator::GossipAggregator(std::size_t n)
    : sum_(n, 0.0), weight_(n, 1.0), alive_(n, true) {}

void GossipAggregator::reset(const std::vector<double>& values) {
  sum_ = values;
  weight_.assign(values.size(), 1.0);
  alive_.assign(values.size(), true);
}

std::size_t GossipAggregator::round(sim::Rng& rng) {
  std::size_t messages = 0;
  // Snapshot of shares pushed this round (synchronous push-sum).
  std::vector<double> add_sum(sum_.size(), 0.0), add_w(sum_.size(), 0.0);
  for (std::size_t i = 0; i < sum_.size(); ++i) {
    if (!alive_[i]) continue;
    // Choose a random live peer other than self.
    std::size_t peer = i;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto cand = static_cast<std::size_t>(rng.below(sum_.size()));
      if (cand != i && alive_[cand]) {
        peer = cand;
        break;
      }
    }
    if (peer == i) continue;  // no live peer found
    const double half_s = sum_[i] / 2.0, half_w = weight_[i] / 2.0;
    sum_[i] = half_s;
    weight_[i] = half_w;
    add_sum[peer] += half_s;
    add_w[peer] += half_w;
    ++messages;
  }
  for (std::size_t i = 0; i < sum_.size(); ++i) {
    sum_[i] += add_sum[i];
    weight_[i] += add_w[i];
  }
  return messages;
}

double GossipAggregator::estimate(std::size_t node) const {
  return weight_[node] > 1e-12 ? sum_[node] / weight_[node] : 0.0;
}

void GossipAggregator::fail_node(std::size_t node) { alive_[node] = false; }

// -------------------------------------------------------------- hierarchy --

HierarchyAggregator::HierarchyAggregator(std::size_t n, std::size_t arity)
    : arity_(std::max<std::size_t>(2, arity)),
      value_(n, 0.0),
      estimate_(n, 0.0),
      alive_(n, true) {}

void HierarchyAggregator::reset(const std::vector<double>& values) {
  value_ = values;
  estimate_.assign(values.size(), 0.0);
  alive_.assign(values.size(), true);
}

bool HierarchyAggregator::path_to_root_alive(std::size_t node) const {
  while (node != 0) {
    if (!alive_[node]) return false;
    node = (node - 1) / arity_;
  }
  return alive_[0];
}

std::size_t HierarchyAggregator::round(sim::Rng&) {
  // One full up-sweep + down-sweep. Nodes whose path to the root crosses a
  // failed node neither contribute nor receive.
  double acc = 0.0;
  std::size_t contributing = 0, messages = 0;
  for (std::size_t i = 0; i < value_.size(); ++i) {
    if (!path_to_root_alive(i)) continue;
    acc += value_[i];
    ++contributing;
    if (i != 0) ++messages;  // aggregated up edge-by-edge (amortised 1/node)
  }
  const double mean =
      contributing ? acc / static_cast<double>(contributing) : 0.0;
  for (std::size_t i = 0; i < value_.size(); ++i) {
    if (!path_to_root_alive(i)) continue;
    estimate_[i] = mean;
    if (i != 0) ++messages;  // broadcast down
  }
  return messages;
}

double HierarchyAggregator::estimate(std::size_t node) const {
  return estimate_[node];
}

void HierarchyAggregator::fail_node(std::size_t node) {
  alive_[node] = false;
}

}  // namespace sa::core

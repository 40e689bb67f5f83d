// Collective self-awareness.
//
// The framework's third concept (paper, Section IV): "self-awareness can be
// a property of collective systems, even when there is no single component
// with a global awareness of the whole system" (Mitchell [45]). This module
// provides three ways for a population of agents to maintain a shared
// estimate of a global quantity (e.g. mean load, population size):
//
//   * CentralAggregator  — the classic baseline: every node reports to a
//     coordinator each round (single point of failure, hotspot);
//   * GossipAggregator   — push-sum gossip (Kempe et al.): fully
//     decentralised, pairwise exchanges, converges exponentially;
//   * HierarchyAggregator — k-ary aggregation tree (Guang et al. [63]):
//     partial decentralisation, deterministic convergence in tree depth.
//
// Experiment E7 compares messages, rounds-to-converge and failure
// sensitivity across the three.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace sa::core {

/// Interface: distributed estimation of the population mean of per-node
/// local values. run one `round()` at a time; `estimate(i)` is node i's
/// current belief about the global mean.
class CollectiveAggregator {
 public:
  virtual ~CollectiveAggregator() = default;
  /// (Re)initialises with one local value per node.
  virtual void reset(const std::vector<double>& values) = 0;
  /// Executes one communication round; returns messages sent.
  virtual std::size_t round(sim::Rng& rng) = 0;
  /// Node i's current estimate of the global mean.
  [[nodiscard]] virtual double estimate(std::size_t node) const = 0;
  [[nodiscard]] virtual std::size_t nodes() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Marks a node failed: it no longer sends or responds.
  virtual void fail_node(std::size_t node) = 0;

  /// Max |estimate(i) − truth| over live nodes.
  [[nodiscard]] double max_error(double truth) const;
  /// Mean |estimate(i) − truth| over live nodes.
  [[nodiscard]] double mean_error(double truth) const;
  [[nodiscard]] virtual bool alive(std::size_t node) const = 0;
};

/// Every live node sends its value to node 0, which averages and replies.
/// If node 0 has failed, the collective is blind (estimates freeze).
class CentralAggregator final : public CollectiveAggregator {
 public:
  explicit CentralAggregator(std::size_t n);
  void reset(const std::vector<double>& values) override;
  std::size_t round(sim::Rng& rng) override;
  [[nodiscard]] double estimate(std::size_t node) const override;
  [[nodiscard]] std::size_t nodes() const override { return value_.size(); }
  [[nodiscard]] std::string name() const override { return "central"; }
  void fail_node(std::size_t node) override;
  [[nodiscard]] bool alive(std::size_t node) const override {
    return alive_[node];
  }

 private:
  std::vector<double> value_;
  std::vector<double> estimate_;
  std::vector<bool> alive_;
};

/// Push-sum gossip: each node keeps (sum, weight); each round every live
/// node halves its pair and pushes half to one random live neighbour.
/// estimate = sum/weight → global mean, with no global component.
class GossipAggregator final : public CollectiveAggregator {
 public:
  explicit GossipAggregator(std::size_t n);
  void reset(const std::vector<double>& values) override;
  std::size_t round(sim::Rng& rng) override;
  [[nodiscard]] double estimate(std::size_t node) const override;
  [[nodiscard]] std::size_t nodes() const override { return sum_.size(); }
  [[nodiscard]] std::string name() const override { return "gossip"; }
  void fail_node(std::size_t node) override;
  [[nodiscard]] bool alive(std::size_t node) const override {
    return alive_[node];
  }

 private:
  std::vector<double> sum_;
  std::vector<double> weight_;
  std::vector<bool> alive_;
};

/// k-ary tree: leaves aggregate up to the root, the root broadcasts the
/// mean back down. Each full round costs 2·(n−1) messages and converges
/// exactly. A failed interior node partitions its subtree (its descendants
/// stop updating), exposing the structural fragility hierarchy trades for
/// determinism.
class HierarchyAggregator final : public CollectiveAggregator {
 public:
  HierarchyAggregator(std::size_t n, std::size_t arity = 2);
  void reset(const std::vector<double>& values) override;
  std::size_t round(sim::Rng& rng) override;
  [[nodiscard]] double estimate(std::size_t node) const override;
  [[nodiscard]] std::size_t nodes() const override { return value_.size(); }
  [[nodiscard]] std::string name() const override { return "hierarchy"; }
  void fail_node(std::size_t node) override;
  [[nodiscard]] bool alive(std::size_t node) const override {
    return alive_[node];
  }

 private:
  [[nodiscard]] bool path_to_root_alive(std::size_t node) const;
  std::size_t arity_;
  std::vector<double> value_;
  std::vector<double> estimate_;
  std::vector<bool> alive_;
};

}  // namespace sa::core

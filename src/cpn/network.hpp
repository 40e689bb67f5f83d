// Cognitive packet network simulator.
//
// Substrate for the paper's resource-constrained motivation (Section III,
// Sakellari [38]; Gelenbe & Loukas [39]): a packet network whose nodes run
// a self-awareness loop that "monitors the effect of using different
// routes" and adapts source-destination paths on an ongoing basis, keeping
// QoS under changing load and denial-of-service attacks.
//
// Substitution note (recorded in DESIGN.md): the original CPN uses random
// neural networks trained by reinforcement; we substitute Q-routing
// (Boyan & Littman), the canonical tabular RL routing algorithm. Both are
// per-node online RL over next-hop choices rewarded by observed delay —
// the same observe-decide-act loop with the same adaptation behaviour,
// which is what the experiments exercise.
//
// Dynamics are time-stepped: a packet in transit on a link takes a number
// of ticks equal to the link's base latency inflated by congestion
// (quadratic in load/capacity). Routers choose the next hop on each
// arrival; Q-routing updates its estimates from the observed per-link
// delays, so congestion (including attack floods) is routed around.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"

namespace sa::cpn {

/// An undirected link.
struct LinkSpec {
  std::size_t a = 0, b = 0;
  double base_latency = 1.0;  ///< ticks when uncongested
  double capacity = 8.0;      ///< packets in flight before congestion bites
};

/// Static graph with shortest-path tables.
class Topology {
 public:
  Topology(std::size_t nodes, std::vector<LinkSpec> links);

  /// rows×cols grid with `shortcuts` extra random chords.
  static Topology grid(std::size_t rows, std::size_t cols,
                       std::size_t shortcuts, std::uint64_t seed);

  [[nodiscard]] std::size_t nodes() const noexcept { return n_; }
  [[nodiscard]] const std::vector<LinkSpec>& links() const noexcept {
    return links_;
  }
  /// Neighbour node ids of `node`.
  [[nodiscard]] const std::vector<std::size_t>& neighbours(
      std::size_t node) const {
    return adj_[node];
  }
  /// Link index carrying (a,b); SIZE_MAX if absent. Resolved through the
  /// per-node adjacency (O(degree)), not a scan over all links.
  [[nodiscard]] std::size_t link_between(std::size_t a, std::size_t b) const;
  /// Link index to `neighbours(node)[slot]` — the zero-search variant for
  /// callers that already hold a neighbour slot.
  [[nodiscard]] std::size_t link_at(std::size_t node, std::size_t slot) const {
    return adj_link_[node][slot];
  }
  /// Base-latency shortest-path distance a→b.
  [[nodiscard]] double distance(std::size_t a, std::size_t b) const {
    return dist_[a * n_ + b];
  }
  /// Next hop on the static shortest path a→b (SIZE_MAX if unreachable).
  [[nodiscard]] std::size_t next_hop(std::size_t a, std::size_t b) const {
    return next_[a * n_ + b];
  }

 private:
  void build_tables();
  std::size_t n_;
  std::vector<LinkSpec> links_;
  std::vector<std::vector<std::size_t>> adj_;
  /// adj_link_[v][s] is the link index joining v to adj_[v][s].
  std::vector<std::vector<std::size_t>> adj_link_;
  std::vector<double> dist_;
  std::vector<std::size_t> next_;
};

/// Per-window delivery statistics (legitimate traffic only).
struct CpnStats {
  std::size_t injected = 0;
  std::size_t delivered = 0;
  std::size_t dropped = 0;      ///< TTL exceeded or no route
  double mean_latency = 0.0;    ///< ticks, delivered packets
  double p95_latency = 0.0;
  double mean_hops = 0.0;
  [[nodiscard]] double delivery_rate() const {
    const auto done = delivered + dropped;
    return done ? static_cast<double>(delivered) /
                      static_cast<double>(done)
                : 1.0;
  }
};

class PacketNetwork {
 public:
  enum class Router {
    Static,    ///< design-time shortest paths, never revisited
    QRouting,  ///< per-node RL on observed delays (the CPN loop)
  };

  struct Params {
    Router router = Router::QRouting;
    double epsilon = 0.05;     ///< exploration probability
    std::size_t ttl_hops = 64; ///< drop packets after this many hops
    /// Self-aware DoS defence (Gelenbe & Loukas [39]): every node tracks
    /// the rate of traffic it forwards towards each destination; traffic
    /// exceeding kDestRateCap packets/tick is shed upstream, so a flood
    /// is strangled near its sources instead of converging on the victim.
    bool dos_defence = false;
    std::uint64_t seed = 41;
  };

  PacketNetwork(Topology topo, Params p);

  /// Injects one packet at `src` for `dst`. `legit` packets feed the
  /// statistics; attack packets only create load.
  void inject(std::size_t src, std::size_t dst, bool legit);
  /// Advances one tick: transits progress, arrivals are re-routed/absorbed.
  void step();
  [[nodiscard]] double now() const noexcept { return now_; }
  /// Drives step() through `engine` every `period` (order 0 = dynamics).
  /// Bind the traffic generator *before* the network so each tick's
  /// injections precede the transit step, as in the synchronous loop.
  void bind(sim::Engine& engine, double period = 1.0);
  /// Emits one kObservation per legit delivery (value = latency) and one
  /// kFailure per drop (detail = "shed"/"dead-link"/"buffer"/"ttl"/
  /// "no-route"). Non-owning; null disables emission.
  void set_telemetry(sim::TelemetryBus* bus);

  /// Statistics since the last harvest (legit traffic only).
  CpnStats harvest();

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  /// Packets shed by the DoS defence so far (any traffic class).
  [[nodiscard]] std::size_t defence_drops() const noexcept {
    return defence_drops_;
  }
  /// Takes link `l` down: everything sent onto it is lost (the Q-router
  /// learns this through its drop penalty; static routing keeps trying).
  void fail_link(std::size_t l) { dead_[l] = true; }
  void restore_link(std::size_t l) { dead_[l] = false; }
  [[nodiscard]] bool link_dead(std::size_t l) const { return dead_[l]; }
  /// Fault surface: multiplies link `l`'s latency. Packets already in
  /// flight keep their old transit times, so a spike reorders arrivals
  /// relative to later sends on other routes. 1.0 restores nominal.
  void set_link_slowdown(std::size_t l, double factor) {
    slowdown_[l] = std::max(1.0, factor);
  }
  [[nodiscard]] double link_slowdown(std::size_t l) const {
    return slowdown_[l];
  }

 private:
  struct Packet {
    std::size_t dst = 0;
    std::size_t at = 0;        ///< node the packet departed from
    std::size_t to = 0;        ///< node it is heading to
    std::size_t prev = 0;      ///< node before `at` (loop avoidance)
    std::size_t link = 0;
    double remaining = 0.0;    ///< ticks left on the link
    double sent_at = 0.0;      ///< when it entered the current link
    double born = 0.0;
    std::size_t hops = 0;
    bool legit = true;
  };

  [[nodiscard]] double& q(std::size_t node, std::size_t dst,
                          std::size_t nbr_index);
  [[nodiscard]] std::size_t choose_next(std::size_t node, std::size_t dst,
                                        std::size_t prev);
  /// Returns false (and drops the packet) when the link buffer is full;
  /// the Q-router also learns from the drop.
  bool send(Packet& pkt, std::size_t from, std::size_t to);
  void arrive(Packet pkt);
  [[nodiscard]] double link_latency(std::size_t l) const;

  Topology topo_;
  Params p_;
  sim::Rng rng_;
  double now_ = 0.0;

  std::vector<Packet> flying_;
  std::vector<Packet> arrivals_;  ///< per-tick scratch, reused across steps
  std::vector<std::size_t> in_flight_;
  std::vector<bool> dead_;
  std::vector<double> slowdown_;  ///< fault-injected latency multipliers
  // Q[node][dst][neighbour-slot]: estimated remaining delivery time.
  std::vector<double> q_;
  std::size_t max_degree_ = 0;

  // DoS defence state: per (node, dst) forwarded-rate estimate.
  std::vector<double> fwd_count_;  ///< packets forwarded this tick
  std::vector<double> fwd_rate_;   ///< EWMA packets/tick
  std::size_t defence_drops_ = 0;

  sim::TelemetryBus* telemetry_ = nullptr;
  sim::SubjectId subject_ = 0;

  std::size_t injected_ = 0, delivered_ = 0, dropped_ = 0;
  sim::RunningStats latency_;
  sim::Histogram latency_hist_{0.0, 400.0, 200};
  sim::RunningStats hops_;
};

}  // namespace sa::cpn

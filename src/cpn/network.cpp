#include "cpn/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sa::cpn {

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kAlpha = 0.2;          ///< Q-routing learning rate
constexpr double kBufferFactor = 4.0;   ///< max in-flight per link, x capacity
constexpr double kDropPenalty = 200.0;  ///< Q backup value for a buffer drop
/// DoS defence: packets/tick forwarded towards one destination before the
/// excess is shed.
constexpr double kDestRateCap = 1.0;
}  // namespace

Topology::Topology(std::size_t nodes, std::vector<LinkSpec> links)
    : n_(nodes), links_(std::move(links)), adj_(nodes), adj_link_(nodes) {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const auto& l = links_[i];
    adj_[l.a].push_back(l.b);
    adj_link_[l.a].push_back(i);
    adj_[l.b].push_back(l.a);
    adj_link_[l.b].push_back(i);
  }
  build_tables();
}

Topology Topology::grid(std::size_t rows, std::size_t cols,
                        std::size_t shortcuts, std::uint64_t seed) {
  std::vector<LinkSpec> links;
  auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) links.push_back({id(r, c), id(r, c + 1), 1.0, 8.0});
      if (r + 1 < rows) links.push_back({id(r, c), id(r + 1, c), 1.0, 8.0});
    }
  }
  sim::Rng rng(seed);
  const std::size_t n = rows * cols;
  std::size_t added = 0;
  while (added < shortcuts) {
    const auto a = static_cast<std::size_t>(rng.below(n));
    const auto b = static_cast<std::size_t>(rng.below(n));
    if (a == b) continue;
    bool dup = false;
    for (const auto& l : links) {
      if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    links.push_back({a, b, 2.0, 6.0});  // chords: longer but useful
    ++added;
  }
  return Topology(n, std::move(links));
}

std::size_t Topology::link_between(std::size_t a, std::size_t b) const {
  const auto& nbrs = adj_[a];
  for (std::size_t s = 0; s < nbrs.size(); ++s) {
    if (nbrs[s] == b) return adj_link_[a][s];
  }
  return kNone;
}

void Topology::build_tables() {
  // Floyd–Warshall over base latencies (n is small).
  dist_.assign(n_ * n_, kInf);
  next_.assign(n_ * n_, kNone);
  for (std::size_t i = 0; i < n_; ++i) dist_[i * n_ + i] = 0.0;
  for (const auto& l : links_) {
    if (l.base_latency < dist_[l.a * n_ + l.b]) {
      dist_[l.a * n_ + l.b] = dist_[l.b * n_ + l.a] = l.base_latency;
      next_[l.a * n_ + l.b] = l.b;
      next_[l.b * n_ + l.a] = l.a;
    }
  }
  for (std::size_t k = 0; k < n_; ++k) {
    for (std::size_t i = 0; i < n_; ++i) {
      const double dik = dist_[i * n_ + k];
      if (dik == kInf) continue;
      for (std::size_t j = 0; j < n_; ++j) {
        const double alt = dik + dist_[k * n_ + j];
        if (alt < dist_[i * n_ + j]) {
          dist_[i * n_ + j] = alt;
          next_[i * n_ + j] = next_[i * n_ + k];
        }
      }
    }
  }
}

PacketNetwork::PacketNetwork(Topology topo, Params p)
    : topo_(std::move(topo)),
      p_(p),
      rng_(p.seed),
      in_flight_(topo_.links().size(), 0),
      dead_(topo_.links().size(), false),
      slowdown_(topo_.links().size(), 1.0),
      fwd_count_(topo_.nodes() * topo_.nodes(), 0.0),
      fwd_rate_(topo_.nodes() * topo_.nodes(), 0.0) {
  for (std::size_t v = 0; v < topo_.nodes(); ++v) {
    max_degree_ = std::max(max_degree_, topo_.neighbours(v).size());
  }
  // Initialise Q with the static shortest-path estimates so that the
  // learner starts out equivalent to Static and then adapts.
  q_.assign(topo_.nodes() * topo_.nodes() * max_degree_, 0.0);
  for (std::size_t v = 0; v < topo_.nodes(); ++v) {
    for (std::size_t d = 0; d < topo_.nodes(); ++d) {
      const auto& nbrs = topo_.neighbours(v);
      for (std::size_t s = 0; s < nbrs.size(); ++s) {
        const std::size_t l = topo_.link_at(v, s);
        q(v, d, s) = topo_.links()[l].base_latency + topo_.distance(nbrs[s], d);
      }
    }
  }
}

double& PacketNetwork::q(std::size_t node, std::size_t dst,
                         std::size_t nbr_index) {
  return q_[(node * topo_.nodes() + dst) * max_degree_ + nbr_index];
}

double PacketNetwork::link_latency(std::size_t l) const {
  const auto& spec = topo_.links()[l];
  const double load =
      static_cast<double>(in_flight_[l]) / spec.capacity;
  return spec.base_latency * (1.0 + load * load) * slowdown_[l];
}

std::size_t PacketNetwork::choose_next(std::size_t node, std::size_t dst,
                                       std::size_t prev) {
  const auto& nbrs = topo_.neighbours(node);
  if (nbrs.empty()) return kNone;
  if (p_.router == Router::Static) {
    return topo_.next_hop(node, dst);
  }
  if (rng_.chance(p_.epsilon)) {
    return nbrs[rng_.below(nbrs.size())];
  }
  std::size_t best = kNone;
  double best_q = kInf;
  for (std::size_t s = 0; s < nbrs.size(); ++s) {
    if (nbrs[s] == prev && nbrs.size() > 1) continue;  // no instant backtrack
    const double v = q(node, dst, s);
    if (v < best_q) {
      best_q = v;
      best = nbrs[s];
    }
  }
  return best;
}

bool PacketNetwork::send(Packet& pkt, std::size_t from, std::size_t to) {
  if (p_.dos_defence) {
    // Upstream shedding: if this node is already forwarding more traffic
    // towards pkt.dst than the cap, drop the excess probabilistically.
    const double rate = fwd_rate_[from * topo_.nodes() + pkt.dst];
    if (rate > kDestRateCap &&
        rng_.chance(1.0 - kDestRateCap / rate)) {
      ++defence_drops_;
      if (pkt.legit) ++dropped_;
      if (telemetry_) {
        telemetry_->record(now_, sim::TelemetryBus::kFailure, subject_,
                           static_cast<double>(pkt.hops), "shed");
      }
      return false;
    }
    fwd_count_[from * topo_.nodes() + pkt.dst] += 1.0;
  }
  const std::size_t l = topo_.link_between(from, to);
  const auto buffer_limit = static_cast<std::size_t>(
      kBufferFactor * topo_.links()[l].capacity);
  if (dead_[l] || in_flight_[l] >= buffer_limit) {
    // Finite buffers: the packet is lost, and the sender's Q estimate for
    // this link takes a heavy penalty so future traffic routes around it.
    if (p_.router == Router::QRouting) {
      const auto& nbrs = topo_.neighbours(from);
      for (std::size_t s = 0; s < nbrs.size(); ++s) {
        if (nbrs[s] == to) {
          double& qv = q(from, pkt.dst, s);
          qv += kAlpha * (kDropPenalty - qv);
          break;
        }
      }
    }
    if (pkt.legit) ++dropped_;
    if (telemetry_) {
      telemetry_->record(now_, sim::TelemetryBus::kFailure, subject_,
                         static_cast<double>(pkt.hops),
                         dead_[l] ? "dead-link" : "buffer");
    }
    return false;
  }
  pkt.prev = pkt.at;
  pkt.at = from;
  pkt.to = to;
  pkt.link = l;
  pkt.remaining = link_latency(l);
  pkt.sent_at = now_;
  ++pkt.hops;
  ++in_flight_[l];
  flying_.push_back(pkt);
  return true;
}

void PacketNetwork::inject(std::size_t src, std::size_t dst, bool legit) {
  if (src == dst) return;
  if (legit) ++injected_;
  Packet pkt;
  pkt.dst = dst;
  pkt.at = src;
  pkt.prev = kNone;
  pkt.born = now_;
  pkt.legit = legit;
  const std::size_t nxt = choose_next(src, dst, kNone);
  if (nxt == kNone) {
    if (legit) ++dropped_;
    if (telemetry_) {
      telemetry_->record(now_, sim::TelemetryBus::kFailure, subject_, 0.0,
                         "no-route");
    }
    return;
  }
  send(pkt, src, nxt);  // a full buffer counts the drop itself
}

void PacketNetwork::arrive(Packet pkt) {
  const std::size_t here = pkt.to;
  const double observed = now_ - pkt.sent_at;

  if (p_.router == Router::QRouting) {
    // Q-routing backup: the sender learns the observed transit plus the
    // receiver's best remaining estimate.
    const auto& nbrs_prev = topo_.neighbours(pkt.at);
    std::size_t slot = kNone;
    for (std::size_t s = 0; s < nbrs_prev.size(); ++s) {
      if (nbrs_prev[s] == here) {
        slot = s;
        break;
      }
    }
    if (slot != kNone) {
      double best_next = 0.0;
      if (here != pkt.dst) {
        best_next = kInf;
        const auto& nbrs_here = topo_.neighbours(here);
        for (std::size_t s = 0; s < nbrs_here.size(); ++s) {
          best_next = std::min(best_next, q(here, pkt.dst, s));
        }
        if (best_next == kInf) best_next = 0.0;
      }
      double& qv = q(pkt.at, pkt.dst, slot);
      qv += kAlpha * (observed + best_next - qv);
    }
  }

  if (here == pkt.dst) {
    if (pkt.legit) {
      ++delivered_;
      const double lat = now_ - pkt.born;
      latency_.add(lat);
      latency_hist_.add(lat);
      hops_.add(static_cast<double>(pkt.hops));
      if (telemetry_) {
        telemetry_->record(now_, sim::TelemetryBus::kObservation, subject_,
                           lat, "delivered");
      }
    }
    return;
  }
  if (pkt.hops >= p_.ttl_hops) {
    if (pkt.legit) ++dropped_;
    if (telemetry_) {
      telemetry_->record(now_, sim::TelemetryBus::kFailure, subject_,
                         static_cast<double>(pkt.hops), "ttl");
    }
    return;
  }
  const std::size_t nxt = choose_next(here, pkt.dst, pkt.at);
  if (nxt == kNone) {
    if (pkt.legit) ++dropped_;
    if (telemetry_) {
      telemetry_->record(now_, sim::TelemetryBus::kFailure, subject_,
                         static_cast<double>(pkt.hops), "no-route");
    }
    return;
  }
  Packet onward = pkt;
  onward.at = here;
  send(onward, here, nxt);  // a full buffer counts the drop itself
}

void PacketNetwork::step() {
  now_ += 1.0;
  if (p_.dos_defence) {
    for (std::size_t i = 0; i < fwd_rate_.size(); ++i) {
      fwd_rate_[i] = 0.98 * fwd_rate_[i] + 0.02 * fwd_count_[i];
      fwd_count_[i] = 0.0;
    }
  }

  // One SoA-style sweep over the in-flight array: decrement transit
  // clocks, compact survivors in place, land arrivals into the reused
  // member scratch (arrive() may push new sends onto flying_).
  arrivals_.clear();
  std::size_t w = 0;
  for (std::size_t i = 0; i < flying_.size(); ++i) {
    Packet& pkt = flying_[i];
    pkt.remaining -= 1.0;
    if (pkt.remaining <= 0.0) {
      --in_flight_[pkt.link];
      arrivals_.push_back(pkt);
    } else {
      flying_[w++] = pkt;
    }
  }
  flying_.resize(w);
  for (auto& pkt : arrivals_) arrive(pkt);
}

void PacketNetwork::bind(sim::Engine& engine, double period) {
  engine.every_tagged(
      sim::event_tag("sa.cpn.network"), period,
      [this] { step(); return true; }, /*order=*/0);
}

void PacketNetwork::set_telemetry(sim::TelemetryBus* bus) {
  telemetry_ = bus;
  if (telemetry_) subject_ = telemetry_->intern_subject("cpn.network");
}

CpnStats PacketNetwork::harvest() {
  CpnStats s;
  s.injected = injected_;
  s.delivered = delivered_;
  s.dropped = dropped_;
  s.mean_latency = latency_.mean();
  s.p95_latency = latency_hist_.quantile(0.95);
  s.mean_hops = hops_.mean();
  injected_ = delivered_ = dropped_ = 0;
  latency_.reset();
  latency_hist_ = sim::Histogram{0.0, 400.0, 200};
  hops_.reset();
  return s;
}

}  // namespace sa::cpn

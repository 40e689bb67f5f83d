#include "svc/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sa::svc {

namespace {
constexpr std::size_t kUnowned = std::numeric_limits<std::size_t>::max();
/// Minimum visibility to keep a track.
constexpr double kVisThreshold = 0.15;
/// Chance an unowned visible object is claimed in a step.
constexpr double kRedetectProb = 0.5;
/// Fraction of waypoints inside the hotspot.
constexpr double kHotspotBias = 0.7;
constexpr Vec2 kHotspot{0.5, 0.5};
constexpr double kHotspotRadius = 0.2;
}  // namespace

double distance(Vec2 a, Vec2 b) noexcept {
  const double dx = a.x - b.x, dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Network::Network(std::vector<CameraSpec> cameras, NetworkParams params)
    : specs_(std::move(cameras)),
      p_(params),
      rng_(params.seed),
      strategy_(specs_.size(), Strategy::Broadcast),
      failed_(specs_.size(), false),
      blur_(specs_.size(), 1.0),
      neighbours_(specs_.size()),
      links_(specs_.size()),
      owned_count_(specs_.size(), 0),
      cam_epoch_(specs_.size()) {
  // Precompute the Smooth audiences: FoV-overlapping cameras.
  for (std::size_t a = 0; a < specs_.size(); ++a) {
    for (std::size_t b = 0; b < specs_.size(); ++b) {
      if (a == b) continue;
      if (distance(specs_[a].pos, specs_[b].pos) <=
          specs_[a].radius + specs_[b].radius) {
        neighbours_[a].push_back(b);
      }
    }
  }
  // Objects start unowned at random positions with random waypoints.
  object_pos_.resize(p_.objects);
  object_waypoint_.resize(p_.objects);
  owner_.assign(p_.objects, kUnowned);
  for (std::size_t o = 0; o < p_.objects; ++o) {
    object_pos_[o] = {rng_.uniform(), rng_.uniform()};
    object_waypoint_[o] = object_pos_[o];
  }
}

Network Network::clustered_layout(NetworkParams params) {
  std::vector<CameraSpec> cams;
  // Dense 2x2 cluster around the hotspot: heavily overlapping FoVs.
  const Vec2 h = kHotspot;
  for (double dx : {-0.06, 0.06}) {
    for (double dy : {-0.06, 0.06}) {
      cams.push_back({{h.x + dx, h.y + dy}, 0.22, 6});
    }
  }
  // Sparse ring of isolated cameras near the edges: small enough FoVs that
  // they overlap neither each other nor the cluster.
  const Vec2 ring[] = {{0.12, 0.12}, {0.88, 0.12}, {0.12, 0.88},
                       {0.88, 0.88}, {0.5, 0.06},  {0.06, 0.5},
                       {0.94, 0.5},  {0.5, 0.94}};
  for (const Vec2& pos : ring) cams.push_back({pos, 0.15, 6});
  return Network(std::move(cams), params);
}

double Network::visibility(std::size_t cam, std::size_t obj) const {
  if (failed_[cam]) return 0.0;
  const double d = distance(specs_[cam].pos, object_pos_[obj]);
  const double r = specs_[cam].radius;
  if (d >= r) return 0.0;
  // Best at the centre, fading to the rim; a blurred sensor sees less.
  return (1.0 - d / r) * blur_[cam];
}

void Network::fail_camera(std::size_t cam) {
  if (failed_[cam]) return;
  failed_[cam] = true;
  // A crashed node forgets its tracks at once; re-detection by surviving
  // cameras has to re-home them (no auction — the seller is gone).
  for (std::size_t o = 0; o < owner_.size(); ++o) {
    if (owner_[o] == cam) {
      transfer_owner(o, kUnowned);
      cam_epoch_[cam].lost += 1.0;
    }
  }
}

void Network::set_sensor_blur(std::size_t cam, double factor) {
  blur_[cam] = std::clamp(factor, 0.0, 1.0);
}

void Network::transfer_owner(std::size_t obj, std::size_t to) {
  const std::size_t from = owner_[obj];
  if (from == to) return;
  if (from != kUnowned) --owned_count_[from];
  if (to != kUnowned) ++owned_count_[to];
  owner_[obj] = to;
}

void Network::move_objects() {
  for (std::size_t o = 0; o < object_pos_.size(); ++o) {
    Vec2& pos = object_pos_[o];
    Vec2& wp = object_waypoint_[o];
    if (distance(pos, wp) < p_.speed) {
      // New waypoint, biased towards the hotspot.
      if (rng_.chance(kHotspotBias)) {
        const double ang = rng_.uniform(0.0, 6.283185307179586);
        const double rad = kHotspotRadius * std::sqrt(rng_.uniform());
        wp = {std::clamp(kHotspot.x + rad * std::cos(ang), 0.0, 1.0),
              std::clamp(kHotspot.y + rad * std::sin(ang), 0.0, 1.0)};
      } else {
        wp = {rng_.uniform(), rng_.uniform()};
      }
    }
    const double d = distance(pos, wp);
    if (d > 1e-12) {
      pos.x += (wp.x - pos.x) / d * p_.speed;
      pos.y += (wp.y - pos.y) / d * p_.speed;
    }
  }
}

void Network::auction(std::size_t obj, std::size_t seller) {
  const double t = static_cast<double>(steps_);
  const Strategy s = strategy_[seller];
  if (s == Strategy::Passive) {
    transfer_owner(obj, kUnowned);
    cam_epoch_[seller].lost += 1.0;
    if (telemetry_) {
      telemetry_->record(t, sim::TelemetryBus::kFailure, subject_,
                         static_cast<double>(seller), "lost");
    }
    return;
  }
  // audience_ is member scratch: auctions run inside the per-step batch
  // pass, so the buffer is reused instead of allocated per call.
  audience_.clear();
  if (s == Strategy::Broadcast) {
    for (std::size_t c = 0; c < specs_.size(); ++c) {
      if (c != seller) audience_.push_back(c);
    }
  } else {
    for (const Link& link : links_[seller]) {
      if (link.strength >= 1.0) audience_.push_back(link.peer);
    }
  }
  cam_epoch_[seller].messages += static_cast<double>(audience_.size());
  net_epoch_.messages += static_cast<double>(audience_.size());

  std::size_t best = kUnowned;
  double best_bid = 0.0;
  for (std::size_t c : audience_) {
    const double vis = visibility(c, obj);
    if (vis < kVisThreshold) continue;
    if (load(c) >= specs_[c].capacity) continue;
    // Bid: how well I see it, discounted by how busy I am.
    const double bid =
        vis * (1.0 - static_cast<double>(load(c)) /
                         static_cast<double>(specs_[c].capacity));
    if (bid > best_bid) {
      best_bid = bid;
      best = c;
    }
  }
  if (best != kUnowned) {
    transfer_owner(obj, best);
    cam_epoch_[seller].handovers += 1.0;
    // The successful sale teaches the vision graph, whatever strategy
    // found the buyer.
    auto& edges = links_[seller];
    const auto pos = std::lower_bound(
        edges.begin(), edges.end(), best,
        [](const Link& l, std::size_t peer) { return l.peer < peer; });
    if (pos != edges.end() && pos->peer == best) {
      pos->strength += 1.0;
    } else {
      edges.insert(pos, Link{best, 1.0});
    }
    if (telemetry_) {
      telemetry_->record(t, sim::TelemetryBus::kObservation, subject_,
                         best_bid, "handover");
    }
  } else {
    transfer_owner(obj, kUnowned);
    cam_epoch_[seller].lost += 1.0;
    if (telemetry_) {
      telemetry_->record(t, sim::TelemetryBus::kFailure, subject_,
                         static_cast<double>(seller), "lost");
    }
  }
}

void Network::claim_unowned() {
  for (std::size_t o = 0; o < owner_.size(); ++o) {
    if (owner_[o] != kUnowned) continue;
    if (!rng_.chance(kRedetectProb)) continue;  // detection latency
    std::size_t best = kUnowned;
    double best_vis = kVisThreshold;
    for (std::size_t c = 0; c < specs_.size(); ++c) {
      if (load(c) >= specs_[c].capacity) continue;
      const double vis = visibility(c, o);
      if (vis > best_vis) {
        best_vis = vis;
        best = c;
      }
    }
    if (best != kUnowned) transfer_owner(o, best);
  }
}

void Network::step() {
  ++steps_;
  move_objects();

  double step_vis = 0.0;
  std::size_t tracked = 0;
  for (std::size_t o = 0; o < owner_.size(); ++o) {
    const std::size_t cam = owner_[o];
    if (cam == kUnowned) continue;
    const double vis = visibility(cam, o);
    if (vis >= kVisThreshold) {
      cam_epoch_[cam].tracking += vis;
      step_vis += vis;
      ++tracked;
    } else {
      auction(o, cam);
      // If the auction re-homed it, credit the new owner this step.
      const std::size_t now = owner_[o];
      if (now != kUnowned) {
        const double v2 = visibility(now, o);
        if (v2 >= kVisThreshold) {
          cam_epoch_[now].tracking += v2;
          step_vis += v2;
          ++tracked;
        }
      }
    }
  }
  claim_unowned();

  net_epoch_.steps += 1.0;
  net_epoch_.coverage += static_cast<double>(tracked) /
                         static_cast<double>(owner_.size());
  net_epoch_.mean_visibility +=
      tracked ? step_vis / static_cast<double>(tracked) : 0.0;
  net_epoch_.global_utility += step_vis;
  for (std::size_t c = 0; c < specs_.size(); ++c) {
    cam_epoch_[c].owned_now = load(c);
  }
}

void Network::run(std::size_t steps) {
  for (std::size_t i = 0; i < steps; ++i) step();
}

void Network::set_telemetry(sim::TelemetryBus* bus) {
  telemetry_ = bus;
  if (telemetry_) subject_ = telemetry_->intern_subject("svc.network");
}

CameraEpoch Network::harvest_camera(std::size_t cam) {
  CameraEpoch out = cam_epoch_[cam];
  cam_epoch_[cam] = CameraEpoch{};
  cam_epoch_[cam].owned_now = out.owned_now;
  return out;
}

NetworkEpoch Network::harvest_network() {
  NetworkEpoch out = net_epoch_;
  if (out.steps > 0.0) {
    out.coverage /= out.steps;
    out.mean_visibility /= out.steps;
  }
  out.global_utility -= kCommWeight * out.messages;
  net_epoch_ = NetworkEpoch{};
  return out;
}

}  // namespace sa::svc

#include "cloud/cluster.hpp"

#include <algorithm>
#include <cmath>

namespace sa::cloud {

namespace {
constexpr double kBurstLenS = 40.0;    ///< mean burst duration
constexpr double kCapacityMean = 10.0; ///< per-node requests/s (±50% uniform)
}  // namespace

double DemandModel::rate(double t, double epoch_s, sim::Rng& rng) {
  const double diurnal =
      1.0 + p_.diurnal_amp * std::sin(2.0 * 3.141592653589793 * t / p_.period_s);
  double r = p_.base * diurnal;
  if (t < burst_until_) {
    r *= p_.burst_mult;
  } else {
    burst_until_ = 0.0;
    if (rng.chance(p_.burst_prob)) {
      burst_until_ = t + rng.exponential(kBurstLenS);
      r *= p_.burst_mult;
    }
  }
  (void)epoch_s;
  return std::max(0.0, r);
}

Cluster::Cluster(Params p) : p_(p), rng_(p.seed) {
  nodes_.reserve(p_.nodes);
  was_enrolled_.resize(p_.nodes, 0);
  outcomes_.reserve(p_.nodes);
  for (std::size_t i = 0; i < p_.nodes; ++i) {
    VolunteerNode n;
    n.id = "vn" + std::to_string(i);
    n.capacity = kCapacityMean * rng_.uniform(0.5, 1.5);
    // Reliability heterogeneity: MTTF spans an order of magnitude, so
    // learning who to trust actually matters.
    n.mttf_s = p_.mttf_mean_s * rng_.pareto(0.4, 1.6);
    n.mttr_s = p_.mttr_mean_s * rng_.uniform(0.5, 1.5);
    n.up = rng_.chance(n.mttf_s / (n.mttf_s + n.mttr_s));
    n.next_transition =
        rng_.exponential(n.up ? n.mttf_s : n.mttr_s);
    n.cost_per_s = 0.5 + n.capacity / kCapacityMean;
    nodes_.push_back(std::move(n));
  }
}

void Cluster::enrol(const std::vector<std::size_t>& order, std::size_t k) {
  // was_enrolled_ is member scratch: enrol() runs every control epoch, so
  // the previous-membership snapshot reuses one buffer instead of
  // allocating per call.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    was_enrolled_[i] = nodes_[i].enrolled ? 1 : 0;
    nodes_[i].enrolled = false;
  }
  const std::size_t take = std::min(k, order.size());
  for (std::size_t i = 0; i < take; ++i) {
    auto& n = nodes_[order[i]];
    n.enrolled = true;
    // Fresh enrolments pay the provisioning lag before delivering capacity.
    if (!was_enrolled_[order[i]]) n.boot_until = now_ + p_.boot_s;
  }
}

void Cluster::advance_availability(VolunteerNode& n, double until) {
  while (n.next_transition <= until) {
    n.up = !n.up;
    n.next_transition += rng_.exponential(n.up ? n.mttf_s : n.mttr_s);
  }
}

CloudEpoch Cluster::run_epoch(double rate) {
  const double dt = p_.epoch_s;
  const double t_end = now_ + dt;
  outcomes_.clear();
  CloudEpoch e;

  // One batch sweep over the population, in node-index order (the RNG
  // draws in advance_availability depend on it): advance availability,
  // sample capacity at the midpoint (sub-epoch flips approximate as half
  // capacity for nodes that flipped), and fold the enrolment counters and
  // cost into the same pass — each node's contribution depends only on its
  // own post-advance state, so the fused sweep accumulates the identical
  // float sequence the separate counting pass used to.
  double capacity = 0.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    auto& n = nodes_[i];
    // Preemption overrides the node's own availability process; the renewal
    // clock still advances so the node resumes mid-life on release.
    const bool was_up = n.up && !n.preempted;
    advance_availability(n, t_end);
    if (!n.enrolled) continue;
    const bool now_up = n.up && !n.preempted;
    ++e.enrolled;
    if (now_up) ++e.up_enrolled;
    e.cost += n.cost_per_s * dt;
    if (now_ < n.boot_until) continue;  // still provisioning: no capacity
    double frac = 0.0;
    if (was_up && now_up) {
      frac = 1.0;
    } else if (was_up != now_up) {
      frac = 0.5;
    }
    const double delivered = n.capacity * frac * capacity_factor_;
    capacity += delivered;
    const bool stayed_up = was_up && now_up;
    outcomes_.push_back({i, stayed_up, delivered});
    if (!stayed_up && telemetry_) {
      telemetry_->record(t_end, sim::TelemetryBus::kFailure, subject_,
                         delivered, n.id);
    }
  }

  e.duration = dt;
  e.arrival_rate = rate;
  const double arrived = rate * dt;
  const double offered = arrived + backlog_;
  const double service = capacity * dt;
  e.demand = offered;
  e.capacity = capacity;
  e.served = std::min(offered, service);
  double leftover = offered - e.served;
  e.dropped = std::max(0.0, leftover - p_.queue_bound);
  backlog_ = leftover - e.dropped;
  e.backlog = backlog_;
  e.sla = offered > 0.0 ? e.served / offered : 1.0;
  e.utilisation = service > 0.0 ? std::min(1.0, offered / service) : 1.0;
  now_ = t_end;
  if (telemetry_) {
    telemetry_->record(now_, sim::TelemetryBus::kObservation, subject_,
                       e.sla, "epoch");
  }
  return e;
}

void Cluster::set_telemetry(sim::TelemetryBus* bus) {
  telemetry_ = bus;
  if (telemetry_) subject_ = telemetry_->intern_subject("cloud.cluster");
}

}  // namespace sa::cloud

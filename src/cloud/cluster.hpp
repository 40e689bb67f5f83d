// Volunteer-cloud cluster simulator.
//
// Substrate for the paper's cloud-uncertainty motivation (Section II,
// Elhabbash et al. [14][15]; Chen & Bahsoon [58]): capacity is donated by
// volunteer nodes that appear and disappear outside the system's control,
// with per-node reliability the system can only learn by interacting. An
// autoscaler decides, per epoch, how many nodes to enrol and how to choose
// them; demand arrives as a diurnal-plus-burst request stream.
//
// Epoch model (coarse-grained fluid approximation): during each epoch the
// enrolled-and-up nodes provide capacity C; arriving requests plus backlog
// are served up to C; unserved work queues (and is dropped past a queue
// bound, counting as SLA violations). Node up/down transitions follow
// per-node exponential on/off renewal processes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"

namespace sa::cloud {

/// A donated machine with its own (hidden) availability behaviour.
struct VolunteerNode {
  std::string id;
  double capacity = 10.0;  ///< requests/s when up
  double mttf_s = 300.0;   ///< mean time to failure while enrolled
  double mttr_s = 60.0;    ///< mean time to recovery
  bool up = true;
  bool enrolled = false;
  bool preempted = false;  ///< forced down by a fault injector
  double cost_per_s = 1.0; ///< price of keeping it enrolled
  double next_transition = 0.0;  ///< internal: next up/down flip time
  double boot_until = 0.0;       ///< provisioning lag: no capacity before
};

/// What happened during one epoch, as the autoscaler can see it.
struct CloudEpoch {
  double duration = 0.0;
  double demand = 0.0;          ///< requests arrived (incl. backlog served)
  double arrival_rate = 0.0;    ///< requests/s this epoch
  double served = 0.0;          ///< requests completed
  double dropped = 0.0;         ///< requests lost (queue overflow)
  double backlog = 0.0;         ///< queue carried into the next epoch
  double capacity = 0.0;        ///< mean up-and-enrolled capacity, req/s
  double sla = 1.0;             ///< served / (served + dropped + backlog_in)
  double cost = 0.0;            ///< enrolment cost accrued
  std::size_t enrolled = 0;     ///< nodes enrolled at epoch end
  std::size_t up_enrolled = 0;  ///< of those, how many were up at epoch end
  double utilisation = 0.0;     ///< demand / capacity (clamped)
};

/// Diurnal demand with bursts — the "ongoing change" knob.
class DemandModel {
 public:
  struct Params {
    double base = 40.0;        ///< mean requests/s
    double diurnal_amp = 0.5;  ///< relative amplitude of the daily sine
    double period_s = 600.0;   ///< length of a simulated "day"
    double burst_prob = 0.02;  ///< per-epoch chance a burst starts
    double burst_mult = 2.5;   ///< demand multiplier during a burst
  };

  DemandModel() : DemandModel(Params{}) {}
  explicit DemandModel(Params p) : p_(p) {}

  /// Arrival rate at time `t` (advances burst state; call once per epoch).
  double rate(double t, double epoch_s, sim::Rng& rng);
  [[nodiscard]] bool bursting() const noexcept { return burst_until_ > 0.0; }
  /// Live base-rate override: composite scenarios couple upstream
  /// deliveries into backend demand (see gen::Scenario). Deterministic —
  /// demand still draws only from the caller-provided epoch Rng.
  void set_base(double base) noexcept { p_.base = base; }
  [[nodiscard]] double base() const noexcept { return p_.base; }

 private:
  Params p_;
  double burst_until_ = 0.0;
};

/// The cluster: node population + queueing dynamics.
class Cluster {
 public:
  struct Params {
    std::size_t nodes = 30;
    double epoch_s = 10.0;
    double queue_bound = 400.0;    ///< requests held before dropping
    double mttf_mean_s = 300.0;    ///< heterogeneous: drawn per node
    double mttr_mean_s = 60.0;
    double boot_s = 0.0;           ///< provisioning lag for new enrolments
    std::uint64_t seed = 11;
  };

  Cluster() : Cluster(Params{}) {}
  explicit Cluster(Params p);

  /// Enrols exactly `k` nodes chosen by `order` (a permutation of node
  /// indices, best-first); the rest are released.
  void enrol(const std::vector<std::size_t>& order, std::size_t k);
  /// Advances one epoch under arrival rate `rate`; returns what happened.
  CloudEpoch run_epoch(double rate);

  // -- Fault surfaces (driven by sa::fault, inert otherwise) ----------------
  /// Preempts node `i`: it delivers no capacity regardless of its own
  /// availability process (the provider reclaimed the VM). Its internal
  /// renewal clock keeps running, so on release it resumes mid-life.
  void set_preempted(std::size_t i, bool preempted) {
    nodes_[i].preempted = preempted;
  }
  [[nodiscard]] bool preempted(std::size_t i) const {
    return nodes_[i].preempted;
  }
  /// Scales every node's delivered capacity (cluster-wide latency spike:
  /// while < 1 effective service drops and queues build). 1 = nominal.
  void set_capacity_factor(double f) {
    capacity_factor_ = std::max(0.0, f);
  }
  [[nodiscard]] double capacity_factor() const noexcept {
    return capacity_factor_;
  }

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] double epoch_seconds() const noexcept { return p_.epoch_s; }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const VolunteerNode& node(std::size_t i) const {
    return nodes_[i];
  }
  /// Per-epoch per-node outcome of the last epoch: was the node enrolled
  /// and did it stay up the whole time? (Feeds interaction awareness.)
  struct NodeOutcome {
    std::size_t index;
    bool stayed_up;
    double delivered;  ///< capacity it actually provided, req/s
  };
  [[nodiscard]] const std::vector<NodeOutcome>& last_outcomes() const {
    return outcomes_;
  }

  /// Emits one kFailure per enrolled node that went down during an epoch
  /// (detail = node id) and one kObservation per epoch (value = SLA).
  /// Non-owning; null disables emission.
  void set_telemetry(sim::TelemetryBus* bus);

 private:
  void advance_availability(VolunteerNode& n, double until);

  Params p_;
  std::vector<VolunteerNode> nodes_;
  sim::Rng rng_;
  double now_ = 0.0;
  double backlog_ = 0.0;
  double capacity_factor_ = 1.0;  ///< fault-injected service degradation
  std::vector<NodeOutcome> outcomes_;
  std::vector<char> was_enrolled_;  ///< enrol() scratch (reused per epoch)

  sim::TelemetryBus* telemetry_ = nullptr;
  sim::SubjectId subject_ = 0;
};

}  // namespace sa::cloud

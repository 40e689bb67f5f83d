// Distributed smart-camera network simulator.
//
// Substrate for the paper's flagship EPiCS case study (refs [11][13][48]):
// cameras in a 2D world must keep moving objects tracked, handing objects
// over as they cross fields of view. Handover is market-based (Esterle et
// al.): the losing camera solicits bids; the solicitation *strategy* trades
// tracking continuity against communication cost:
//
//   Broadcast — auction to every camera: best continuity, highest cost,
//               and it teaches the vision graph (successful handovers are
//               remembered as links);
//   Smooth    — auction only over the *learned* vision graph (cameras that
//               previously won handovers from this one): cheap, but blind
//               until the graph is bootstrapped and stale if the scene
//               changes;
//   Passive   — no auction: zero cost, objects must be re-detected, so
//               tracking gaps appear.
//
// The right strategy depends on each camera's local situation (density of
// neighbours, object traffic), which is exactly the heterogeneity argument
// of Lewis et al. [13] ("learning to be different"): self-aware cameras
// that learn their own strategy end up heterogeneous and beat every
// homogeneous assignment. Experiment E2 reproduces that comparison.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/telemetry.hpp"

namespace sa::svc {

struct Vec2 {
  double x = 0.0, y = 0.0;
};

[[nodiscard]] double distance(Vec2 a, Vec2 b) noexcept;

/// Handover solicitation strategy (the per-camera knob that is learned).
enum class Strategy : std::size_t { Broadcast = 0, Smooth = 1, Passive = 2 };
inline constexpr std::size_t kStrategies = 3;
[[nodiscard]] constexpr const char* strategy_name(Strategy s) noexcept {
  switch (s) {
    case Strategy::Broadcast: return "broadcast";
    case Strategy::Smooth: return "smooth";
    case Strategy::Passive: return "passive";
  }
  return "?";
}

struct CameraSpec {
  Vec2 pos;
  double radius = 0.22;      ///< field-of-view radius
  std::size_t capacity = 6;  ///< max simultaneous tracks
};

inline constexpr double kCommWeight = 0.05;  ///< utility cost per message
/// Reward for a successful auction.
inline constexpr double kHandoverBonus = 0.3;

struct NetworkParams {
  std::size_t objects = 24;
  double speed = 0.015;          ///< object speed per step
  std::uint64_t seed = 17;
};

/// Per-camera accumulators since the last harvest.
struct CameraEpoch {
  double tracking = 0.0;   ///< summed visibility of owned objects
  double messages = 0.0;   ///< auction messages sent
  double handovers = 0.0;  ///< successful handovers initiated
  double lost = 0.0;       ///< objects that went unowned on this camera
  std::size_t owned_now = 0;
  /// Local utility: what the camera's own agent optimises.
  [[nodiscard]] double utility() const {
    return tracking + kHandoverBonus * handovers - kCommWeight * messages;
  }
};

/// Network-wide accumulators since the last harvest.
struct NetworkEpoch {
  double steps = 0.0;
  double coverage = 0.0;        ///< mean fraction of objects tracked
  double mean_visibility = 0.0; ///< mean visibility over tracked objects
  double messages = 0.0;        ///< total auction messages
  double global_utility = 0.0;  ///< Σ visibility − kCommWeight·messages
};

class Network {
 public:
  Network(std::vector<CameraSpec> cameras, NetworkParams params);

  /// Canonical layout: a dense 2×2 cluster near the hotspot plus a sparse
  /// ring of isolated cameras — guarantees strategy preferences differ.
  static Network clustered_layout(NetworkParams params);

  void set_strategy(std::size_t cam, Strategy s) { strategy_[cam] = s; }
  [[nodiscard]] Strategy strategy(std::size_t cam) const {
    return strategy_[cam];
  }

  // -- Fault surfaces (driven by sa::fault, inert otherwise) ----------------
  /// Crashes `cam`: it sees nothing (visibility 0) and its tracks are
  /// released immediately — the node-crash half of crash-restart.
  void fail_camera(std::size_t cam);
  void restore_camera(std::size_t cam) { failed_[cam] = false; }
  [[nodiscard]] bool camera_failed(std::size_t cam) const {
    return failed_[cam];
  }
  /// Degrades `cam`'s sensor: visibility is multiplied by `factor` in
  /// [0, 1] (1 = sharp, 0 = total dropout). Tracks fade below the
  /// visibility threshold and are auctioned away like any genuine loss.
  void set_sensor_blur(std::size_t cam, double factor);
  [[nodiscard]] double sensor_blur(std::size_t cam) const {
    return blur_[cam];
  }

  /// One world step: motion, tracking, handovers, re-detection.
  void step();
  void run(std::size_t steps);
  /// Emits handover observations and lost-track failures to `bus` (event
  /// time = world step count). Non-owning; null disables emission.
  void set_telemetry(sim::TelemetryBus* bus);

  [[nodiscard]] std::size_t cameras() const noexcept {
    return specs_.size();
  }
  [[nodiscard]] std::size_t objects() const noexcept {
    return object_pos_.size();
  }
  [[nodiscard]] const CameraSpec& spec(std::size_t cam) const {
    return specs_[cam];
  }
  /// Cameras whose FoV discs overlap cam's (static geometry helper).
  [[nodiscard]] const std::vector<std::size_t>& neighbours(
      std::size_t cam) const {
    return neighbours_[cam];
  }
  /// Visibility of object `obj` from camera `cam` in [0,1].
  [[nodiscard]] double visibility(std::size_t cam, std::size_t obj) const;
  /// Owner camera of `obj` or SIZE_MAX if unowned.
  [[nodiscard]] std::size_t owner(std::size_t obj) const {
    return owner_[obj];
  }

  /// Per-camera stats since last harvest_camera (resets them).
  CameraEpoch harvest_camera(std::size_t cam);
  /// Network stats since last harvest_network (resets them).
  NetworkEpoch harvest_network();

 private:
  /// One learned vision-graph edge. Each camera's edges are kept sorted by
  /// peer id in a flat vector (same ascending order the old per-node
  /// std::map iterated in, minus the node churn).
  struct Link {
    std::size_t peer;
    double strength;
  };

  void move_objects();
  void claim_unowned();
  void auction(std::size_t obj, std::size_t seller);
  /// Tracks owned per camera — maintained incrementally at every owner_
  /// mutation (integer-exact), so bid loops never rescan all objects.
  [[nodiscard]] std::size_t load(std::size_t cam) const {
    return owned_count_[cam];
  }
  void transfer_owner(std::size_t obj, std::size_t to);

  std::vector<CameraSpec> specs_;
  NetworkParams p_;
  sim::Rng rng_;
  std::vector<Strategy> strategy_;
  std::vector<bool> failed_;     ///< fault-injected crashed cameras
  std::vector<double> blur_;     ///< fault-injected sensor quality, [0,1]
  std::vector<std::vector<std::size_t>> neighbours_;
  std::vector<std::vector<Link>> links_;  ///< learned graph, sorted by peer

  std::vector<Vec2> object_pos_;
  std::vector<Vec2> object_waypoint_;
  std::vector<std::size_t> owner_;
  std::vector<std::size_t> owned_count_;   ///< objects owned per camera
  std::vector<std::size_t> audience_;      ///< auction scratch (reused)
  std::size_t steps_ = 0;

  std::vector<CameraEpoch> cam_epoch_;
  NetworkEpoch net_epoch_;

  sim::TelemetryBus* telemetry_ = nullptr;
  sim::SubjectId subject_ = 0;
};

}  // namespace sa::svc

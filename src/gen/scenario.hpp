// Scenario: a ScenarioSpec expanded into a running world.
//
// One sim::Engine hosts every substrate the spec enables, wired the way
// the hand-written benches wire them (manager/fleet/autoscaler bind()
// adapters, fault::Injector surfaces, AgentRuntime knowledge exchange) —
// plus the cross-substrate couplings that make the composite a *city*
// rather than four co-resident silos:
//
//   cameras -> cpn    each camera epoch, tracked-object reports become
//                     packets injected at stream-chosen gateway nodes;
//   cpn -> cloud      each cloud epoch, the delivery rate upstream
//                     modulates the backend demand base (reports that
//                     never arrive are not analysed);
//   cloud -> edge     each cloud epoch, backend utilisation re-targets
//                     the edge platforms' workload rates (overflow
//                     analytics are offloaded to the edge nodes).
//
// Every coupling reads only harvested epoch aggregates at epoch
// boundaries and draws only from the scenario's own forked streams, so
// the whole composite stays byte-deterministic in (spec, seed) — the
// property the metamorphic suites in tests/gen assert.
//
// Scale axes: cameras.districts replicates the camera section into D
// independent fleets and cpn.grids replicates the packet network into G
// independent city-block grids (district d couples into grid d mod G).
// With Options::placement set (sa::shard), each district/grid/edge node
// is built on a caller-chosen engine instead of the scenario's own; the
// scenario's engine then acts as the *coordinator*, hosting everything
// that couples units — coupling windows, cloud, exchange, faults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/autoscaler.hpp"
#include "cloud/cluster.hpp"
#include "core/degrade.hpp"
#include "core/runtime.hpp"
#include "cpn/network.hpp"
#include "cpn/traffic.hpp"
#include "fault/fault.hpp"
#include "gen/spec.hpp"
#include "multicore/manager.hpp"
#include "multicore/platform.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"
#include "svc/fleet.hpp"
#include "svc/network.hpp"

namespace sa::ckpt {
class WorldCheckpoint;
}  // namespace sa::ckpt

namespace sa::gen {

class Scenario {
 public:
  struct Options {
    /// false = design-time baselines everywhere (static manager,
    /// homogeneous fleet, static autoscaler/router, no exchange, no
    /// degradation ladder); true = the paper's self-aware stack.
    bool self_aware = true;
    /// Optional observability; all non-owning, null disables. Attaching
    /// any of these never perturbs the trajectory (asserted by
    /// tests/gen).
    sim::TelemetryBus* telemetry = nullptr;
    sim::Tracer* tracer = nullptr;
    sim::MetricsRegistry* metrics = nullptr;

    /// Sharded placement (sa::shard): which engine hosts each camera
    /// district, CPN grid and edge node. Null = everything on the
    /// scenario's own engine. When set, shard-owned components are built
    /// *without* telemetry/tracer hooks (they execute off the
    /// coordinator thread); coordinator-owned components — cloud,
    /// couplings, exchange, faults — keep them.
    struct Placement {
      std::vector<sim::Engine*> district_engines;  ///< size >= cameras.districts
      std::vector<sim::Engine*> grid_engines;      ///< size >= cpn.grids
      std::vector<sim::Engine*> edge_engines;      ///< size >= multicore.nodes
      /// Called on the owning shard's thread when district `district`'s
      /// camera epoch emits `amount` pending reports at sim time `t`.
      /// The coordinator re-applies the posts in the global event order
      /// via apply_pending() before its next event executes.
      std::function<void(std::size_t district, double t, double amount)>
          post_reports;
    };
    const Placement* placement = nullptr;
  };

  /// Expands `spec` under `run_seed` and wires the world. Throws
  /// std::invalid_argument if the spec enables no substrate.
  Scenario(const ScenarioSpec& spec, std::uint64_t run_seed, Options opts);
  Scenario(const ScenarioSpec& spec, std::uint64_t run_seed)
      : Scenario(spec, run_seed, Options{}) {}
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Runs to the spec's world horizon (resumable: run_until beyond).
  void run();
  void run_until(double t);

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] core::AgentRuntime& runtime() noexcept { return runtime_; }
  [[nodiscard]] fault::Injector& injector() noexcept { return injector_; }
  [[nodiscard]] const fault::FaultPlan& fault_plan() const noexcept {
    return plan_;
  }
  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  /// Every agent alive in the world (edge managers, camera agents when
  /// learning, the autoscaler) — e.g. for serve::SimBridge.
  [[nodiscard]] std::vector<core::SelfAwareAgent*> agents();

  // Substrate access (null when the section is disabled).
  [[nodiscard]] std::size_t edge_nodes() const noexcept {
    return managers_.size();
  }
  /// Camera districts / CPN grids built (0 when the section is disabled).
  [[nodiscard]] std::size_t districts() const noexcept {
    return fleets_.size();
  }
  [[nodiscard]] std::size_t grids() const noexcept { return cpnnets_.size(); }
  /// First district's fleet / first grid's network (the legacy
  /// single-instance accessors; null when the section is disabled).
  [[nodiscard]] svc::CameraFleet* fleet() noexcept {
    return fleets_.empty() ? nullptr : fleets_.front().get();
  }
  [[nodiscard]] cloud::Autoscaler* autoscaler() noexcept {
    return autoscaler_.get();
  }
  [[nodiscard]] cpn::PacketNetwork* packet_network() noexcept {
    return cpnnets_.empty() ? nullptr : cpnnets_.front().get();
  }

  /// Credits `amount` camera reports to district `district`'s
  /// pending-injection accumulator — the coordinator-side half of
  /// Placement::post_reports (sa::shard drains its mailboxes into this
  /// in global event order at every barrier).
  void apply_pending(std::size_t district, double amount) {
    pending_[district] += amount;
  }

  /// Registers this world's checkpointed components on `wc`: runtime
  /// counters, the fault injector, every degradation ladder, per-agent
  /// knowledge bases and the engine timeline. A scenario is restored only
  /// by *replay*: rebuild from the same (spec, seed), re-apply the control
  /// journal and run_until the checkpoint's t (substrate, policy and
  /// learner internals are reproduced by re-execution, not serialized).
  /// WorldCheckpoint::verify() then attests the replayed world byte for
  /// byte against the image.
  void register_checkpoint(ckpt::WorldCheckpoint& wc);

  /// Deterministic whole-run metrics in a fixed order (rows depend only
  /// on which sections are enabled, so same-spec runs byte-compare).
  /// Includes the headline "goal" — the mean of each enabled substrate's
  /// normalised health — plus per-substrate aggregates and fault/exchange
  /// counters.
  [[nodiscard]] std::vector<std::pair<std::string, double>> summary() const;

 private:
  void build_edge();
  void build_cameras();
  void build_cloud();
  void build_cpn();
  void wire_couplings();
  void wire_faults();

  // Placement-aware engine routing: which engine hosts a given unit.
  // Without a placement these all collapse to the scenario's own engine,
  // so the monolithic path is bit-for-bit the pre-placement wiring.
  [[nodiscard]] sim::Engine& district_engine(std::size_t d) {
    return opts_.placement != nullptr ? *opts_.placement->district_engines[d]
                                      : engine_;
  }
  [[nodiscard]] sim::Engine& grid_engine(std::size_t g) {
    return opts_.placement != nullptr ? *opts_.placement->grid_engines[g]
                                      : engine_;
  }
  [[nodiscard]] sim::Engine& edge_engine(std::size_t i) {
    return opts_.placement != nullptr ? *opts_.placement->edge_engines[i]
                                      : engine_;
  }
  // Shard-owned components run off the coordinator thread when a
  // placement is set, so they must not share the observability sinks.
  [[nodiscard]] sim::TelemetryBus* shard_telemetry() const noexcept {
    return opts_.placement != nullptr ? nullptr : opts_.telemetry;
  }
  [[nodiscard]] sim::Tracer* shard_tracer() const noexcept {
    return opts_.placement != nullptr ? nullptr : opts_.tracer;
  }

  ScenarioSpec spec_;
  std::uint64_t seed_;
  Options opts_;

  sim::Engine engine_;
  core::AgentRuntime runtime_;
  fault::Injector injector_;
  fault::FaultPlan plan_;

  // Edge: one platform + manager per node.
  std::vector<std::unique_ptr<multicore::Platform>> platforms_;
  std::vector<std::unique_ptr<multicore::Manager>> managers_;
  std::vector<std::unique_ptr<core::DegradationPolicy>> degradations_;
  std::vector<EdgeWorkload> workloads_;

  // Cameras: one network + fleet per district.
  std::vector<std::unique_ptr<svc::Network>> camnets_;
  std::vector<std::unique_ptr<svc::CameraFleet>> fleets_;

  // Cloud.
  std::unique_ptr<cloud::Cluster> cluster_;
  std::unique_ptr<cloud::DemandModel> demand_;
  std::unique_ptr<cloud::Autoscaler> autoscaler_;

  // CPN: one packet network + traffic generator per grid.
  std::vector<std::unique_ptr<cpn::PacketNetwork>> cpnnets_;
  std::vector<std::unique_ptr<cpn::TrafficGenerator>> traffics_;
  std::vector<std::vector<std::size_t>> gateways_;  ///< per grid: entry nodes
  std::vector<std::size_t> backend_nodes_;          ///< per grid: cloud gateway

  // Coupling state (scenario-owned streams; substrates never see them).
  sim::Rng couple_rng_;
  std::vector<double> pending_;  ///< per district: reports awaiting injection

  // Whole-run aggregates the summary reports (substrates keep their own;
  // these cover the couplings and the CPN harvest windows).
  sim::RunningStats cpn_delivery_, cpn_latency_;
  sim::RunningStats cloud_sla_, cloud_cost_;
  std::size_t reports_injected_ = 0;
  std::size_t cpn_delivered_ = 0, cpn_dropped_ = 0;
};

}  // namespace sa::gen

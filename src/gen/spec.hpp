// Seeded scenario specifications.
//
// The paper's evaluation argument (Sections III and VII) is that
// self-awareness pays off across *diverse, shifting* environments — which
// a fixed set of hand-written benches cannot probe. A ScenarioSpec is the
// whole scenario as data, in the FaultPlan::parse spec idiom: a short
// string names which substrates exist, how big they are, and how hard the
// fault environment presses, and the expansion turns it into concrete
// randomized-but-reproducible topologies, workloads and fault schedules.
//
// Grammar ("section:key=value,...;section;..."):
//
//   seed=N                standalone; 0 (default) = derive from the run seed
//   world:horizon=T,exchange=P,step=S
//   multicore:nodes=K,big=B,little=L,epoch=E,rate=R,work=W,deadline=D,jitter=J
//   cameras:count=C,objects=O,clusters=G,districts=D,epoch=STEPS,speed=V
//   cloud:nodes=K,epoch=E,demand=R,amp=A
//   cpn:rows=R,cols=C,shortcuts=S,flows=F,grids=G,rate=R
//   faults:pressure=P,dur=D,start=T0,end=T1
//
// A substrate section's presence enables that substrate; a bare section
// name (no ':') enables it with all defaults. parse(to_string())
// round-trips; to_string() emits only non-default keys, so specs stay
// short, canonical config strings.
//
// Determinism contract (the FaultPlan rule, extended): every random choice
// the expansion makes draws from a per-section splitmix64 stream forked
// off (spec seed or run seed) — never from a substrate or experiment-cell
// Rng — so the same spec + seed expands to byte-identical worlds on any
// machine, thread count or build, and enabling one more section never
// reshuffles the draws another section sees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "sim/rng.hpp"
#include "svc/network.hpp"

namespace sa::gen {

/// Run-wide knobs (always present; not a substrate).
struct WorldSection {
  double horizon = 600.0;    ///< sim seconds the scenario runs for
  double exchange_s = 30.0;  ///< knowledge-exchange period; 0 disables
  double step_s = 1.0;       ///< camera/CPN tick period on the engine

  bool operator==(const WorldSection&) const = default;
};

/// Multicore edge nodes: `nodes` independent big.LITTLE platforms, each
/// with its own run-time manager and a per-node workload jittered around
/// (rate, work, deadline) by up to ±jitter (relative).
struct MulticoreSection {
  bool enabled = false;
  std::size_t nodes = 2;
  std::size_t big = 2;
  std::size_t little = 2;
  double epoch_s = 0.5;    ///< manager control period
  double rate = 25.0;      ///< task arrivals/s per node (pre-jitter)
  double work = 0.4;       ///< mean giga-ops per task
  double deadline = 0.5;   ///< relative deadline, s
  double jitter = 0.25;    ///< relative per-node workload randomization

  bool operator==(const MulticoreSection&) const = default;
};

/// Smart-camera network: `clusters` dense 4-camera clusters at random
/// centres plus sparse solo cameras up to `count`, watching `objects`.
/// `districts` replicates the whole section: D independent camera
/// networks of `count` cameras each (district 0 expands exactly like a
/// districts=1 section), the scale axis behind the 100k-camera city and
/// the natural sharding unit (sa::shard).
struct CameraSection {
  bool enabled = false;
  std::size_t count = 12;
  std::size_t objects = 24;
  std::size_t clusters = 2;
  std::size_t districts = 1;
  std::size_t epoch_steps = 25;  ///< world steps per strategy epoch
  double speed = 0.015;          ///< object speed per step

  bool operator==(const CameraSection&) const = default;
};

/// Volunteer-cloud backend: node population drawn by the Cluster itself
/// from its seed; demand base modulated by upstream deliveries when the
/// CPN section is also enabled (see gen::Scenario).
struct CloudSection {
  bool enabled = false;
  std::size_t nodes = 24;
  double epoch_s = 10.0;  ///< autoscaler control period
  double demand = 40.0;   ///< base requests/s
  double amp = 0.3;       ///< diurnal amplitude

  bool operator==(const CloudSection&) const = default;
};

/// Cognitive packet network: rows×cols grid plus random shortcut chords,
/// steady legitimate traffic over random flows. `grids` replicates the
/// section into G independent city-block networks (grid 0 expands
/// exactly like a grids=1 section); camera district d couples into grid
/// d mod G.
struct CpnSection {
  bool enabled = false;
  std::size_t rows = 4;
  std::size_t cols = 6;
  std::size_t shortcuts = 4;
  std::size_t flows = 8;
  std::size_t grids = 1;
  double rate = 2.0;  ///< legit packets per tick, network-wide

  bool operator==(const CpnSection&) const = default;
};

/// Fault environment: the expansion derives one FaultProcess per fault
/// kind applicable to an *enabled* substrate, with rates/durations
/// randomized from the section stream and scaled linearly by `pressure`
/// (0 = an empty plan — the guaranteed no-op).
struct FaultSection {
  bool enabled = false;
  double pressure = 1.0;  ///< global fault-rate multiplier
  double dur = 15.0;      ///< mean fault duration scale, s (<0 = permanent)
  double start = 0.0;     ///< processes active from here...
  double end = std::numeric_limits<double>::infinity();  ///< ...to here

  bool operator==(const FaultSection&) const = default;
};

/// One concrete edge-node workload drawn by the expansion.
struct EdgeWorkload {
  double rate = 0.0;
  double work = 0.0;
  double deadline = 0.0;
};

struct ScenarioSpec {
  std::uint64_t seed = 0;  ///< 0 = derive everything from the run seed
  WorldSection world;
  MulticoreSection multicore;
  CameraSection cameras;
  CloudSection cloud;
  CpnSection cpn;
  FaultSection faults;

  bool operator==(const ScenarioSpec&) const = default;

  [[nodiscard]] bool any_substrate() const noexcept {
    return multicore.enabled || cameras.enabled || cloud.enabled ||
           cpn.enabled;
  }

  /// Parses a spec string (see the grammar above). Empty spec -> empty
  /// spec (no substrates). Throws std::invalid_argument on unknown
  /// sections/keys, malformed numbers, or out-of-range values.
  [[nodiscard]] static ScenarioSpec parse(std::string_view spec);
  /// Canonical spec string (parse(to_string()) round-trips).
  [[nodiscard]] std::string to_string() const;

  /// The flagship composite as its canonical string (what --scenario
  /// defaults to): cameras → packet network → cloud backend → multicore
  /// edge nodes plus a standing fault environment (E15).
  [[nodiscard]] static const char* city_spec();

  // -- Seeded expansion -----------------------------------------------------
  // Every expansion draws only from its own section stream forked off
  // `scenario_seed` (= this->seed, or the run seed when this->seed is 0).

  /// The effective seed the expansions key off.
  [[nodiscard]] std::uint64_t scenario_seed(std::uint64_t run_seed) const {
    return seed != 0 ? seed : run_seed;
  }
  /// The per-section stream (public so tests can pin expansion draws).
  [[nodiscard]] static sim::Rng section_stream(std::uint64_t scenario_seed,
                                               std::string_view section);

  /// Camera layout for one district: `clusters` dense 4-camera clusters
  /// at stream-drawn centres, then solo cameras at stream-drawn
  /// positions, `count` total. District 0 draws exactly the districts=1
  /// sequence; district d > 0 uses a stream forked by d, so growing
  /// `districts` never reshuffles earlier districts' layouts.
  [[nodiscard]] std::vector<svc::CameraSpec> expand_cameras(
      std::uint64_t run_seed, std::size_t district = 0) const;
  /// Per-node edge workloads jittered around (rate, work, deadline).
  [[nodiscard]] std::vector<EdgeWorkload> expand_workloads(
      std::uint64_t run_seed) const;
  /// The fault plan: one randomized process per kind applicable to an
  /// enabled substrate, rates scaled by `pressure` (pressure 0 or a
  /// disabled section -> empty plan). The plan seed is stream-derived and
  /// non-zero, so the schedule is pinned by (spec, seed) alone.
  [[nodiscard]] fault::FaultPlan expand_faults(std::uint64_t run_seed) const;

 private:
  [[nodiscard]] std::size_t clusters_that_fit() const;
};

}  // namespace sa::gen

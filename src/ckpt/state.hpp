// Component serializers and the WorldCheckpoint registry (sa::ckpt).
//
// Each stateful layer exposes a small POD-ish export seam
// (sim::Engine::Timeline, sim::Rng::State, fault::Injector::State,
// core::DegradationPolicy::State, core::AgentRuntime::State, and the
// KnowledgeBase's keyed histories); this header turns those seams into
// bytes — one save_ function per component, all through format.hpp's typed
// Buffer so doubles are written bit-exactly.
//
// Canonical-bytes property: every serializer derives its output from a
// canonical ordering (the engine sorts pending events by (t, order, seq);
// the knowledge base iterates keys in ascending order; injector streams
// are in (process, surface) order). Two worlds in the same state therefore
// serialize to *identical bytes*, which is what WorldCheckpoint::verify()
// exploits: a restore is attested by re-exporting every component and
// byte-comparing against the checkpoint — any divergence is a typed
// kStateDivergence error naming the section, never a silent drift.
//
// Restore protocol — there is one, replay:
//   1. Read the image's meta (WorldCheckpoint::read_meta) and rebuild the
//      world from the same recipe and seed.
//   2. Re-apply the control journal and run the world to meta.t.
//   3. WorldCheckpoint::verify(reader, &expected_meta) refuses a stale
//      identity (kShapeMismatch), then re-exports every component and
//      byte-compares it with its section.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "core/degrade.hpp"
#include "core/knowledge.hpp"
#include "core/runtime.hpp"
#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace sa::ckpt {

// -- sim::Engine --------------------------------------------------------------

/// Serializes export_timeline(); kUntaggedEvent if any pending event lacks
/// a tag.
[[nodiscard]] Status save_engine(const sim::Engine& engine, Buffer& out);

// -- sim::Rng -----------------------------------------------------------------

void save_rng(const sim::Rng::State& s, Buffer& out);

// -- core::KnowledgeBase ------------------------------------------------------

/// Full store: every key's retained history, keys in ascending order.
void save_knowledge(const core::KnowledgeBase& kb, Buffer& out);

// -- fault::Injector ----------------------------------------------------------

void save_injector(const fault::Injector& inj, Buffer& out);

// -- core::DegradationPolicy --------------------------------------------------

void save_ladder(const core::DegradationPolicy& p, Buffer& out);

// -- core::AgentRuntime -------------------------------------------------------

void save_runtime(const core::AgentRuntime& rt, Buffer& out);

// -- WorldCheckpoint ----------------------------------------------------------

/// Named registry of checkpointed components plus a meta header. The
/// same registry drives save (export each component into its own
/// CRC-framed section, in registration order) and verify (re-export and
/// byte-compare — the attestation).
class WorldCheckpoint {
 public:
  /// The run's identity, stored in section "meta". `recipe` is whatever
  /// string rebuilds the world (a gen spec, an experiment id); verify
  /// refuses a checkpoint whose identity disagrees (kShapeMismatch) so a
  /// stale file can never silently attest a different run.
  struct Meta {
    double t = 0.0;          ///< sim time of the snapshot
    std::uint64_t seed = 0;
    std::string recipe;
    std::string fault_plan;  ///< canonical FaultPlan spec ("" = none)
  };

  /// Registers a component. Sections are written in registration order.
  void add(std::string name, std::function<Status(Buffer&)> save);

  /// Serializes meta + every component into a sealed checkpoint image.
  [[nodiscard]] Status save(const Meta& meta, std::string& image) const;
  /// save() + write_file_atomic().
  [[nodiscard]] Status save_file(const Meta& meta,
                                 const std::string& path) const;

  [[nodiscard]] static Status read_meta(const Reader& r, Meta& out);

  /// Byte attestation of a replayed world. With `expect`, first validates
  /// recipe/seed/fault_plan identity (kShapeMismatch on disagreement,
  /// before any section is compared). Then re-exports every component and
  /// compares it against the checkpoint's section payload:
  /// kMissingSection if a section is absent, kStateDivergence (naming the
  /// section) if the live world does not byte-match the snapshot.
  [[nodiscard]] Status verify(const Reader& r,
                              const Meta* expect = nullptr) const;

 private:
  struct Component {
    std::string name;
    std::function<Status(Buffer&)> save;
  };
  static std::string section_name(const std::string& component);

  std::vector<Component> components_;
};

}  // namespace sa::ckpt

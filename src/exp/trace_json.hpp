// Chrome/Perfetto trace-event export of a sim::Tracer record.
//
// Produces the Trace Event Format JSON object form
// ({"displayTimeUnit":"ms","traceEvents":[...]}) loadable in
// ui.perfetto.dev or chrome://tracing:
//
//   * one "M" (metadata) event names the process ("sa-sim", pid 1) and one
//     per interned subject names its thread (tid = SubjectId) — every
//     subject renders as its own track;
//   * span begins/ends become "B"/"E" duration events. Timestamps are
//     sim-time seconds scaled to microseconds (ts = t * 1e6); most spans
//     are zero-duration in sim time and still nest correctly because
//     "B"/"E" pair by order within a tid;
//   * flow points become "s"/"t"/"f" flow events keyed by TraceId, drawing
//     the stimulus → knowledge → decision → action → outcome arrows
//     between slices;
//   * each span's "args" carries its trace_id plus any recorded numeric
//     args, so an Explanation citing "decision #N" resolves to the slice
//     whose args.trace_id == N.
//
// Determinism: everything serialised here derives from sim time and
// interned ids — no wall clock, no pointers — and the Json writer is
// byte-deterministic, so the same cell traced under any --jobs N yields a
// bitwise-identical file.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/json.hpp"
#include "sim/trace.hpp"

namespace sa::exp {

/// Builds the trace-event document from a tracer's record (subjects come
/// from the tracer's bus).
[[nodiscard]] Json chrome_trace(const sim::Tracer& tracer);

/// Serialises chrome_trace() compactly, newline-terminated.
void write_chrome_trace(std::ostream& os, const sim::Tracer& tracer);

// -- Cross-agent trace merging ----------------------------------------------
//
// Multi-agent scenarios run one Tracer per agent/domain (each with its own
// TraceId namespace — see sim::kTraceNamespaceShift), so no single file
// shows a knowledge item's journey across agents. merge_perfetto() emits
// ONE trace-event document with each tracer as its own process (pid = its
// index + 1, so per-agent tracks stay separate) and *stitch flows*
// synthesized at knowledge-exchange events: spans named
// `MergeOptions::stitch_span` are collected from every tracer, sorted by
// sim time, and consecutive spans from *different* tracers are linked with
// a flow arrow — the rendered trace then draws exchange causality across
// agent boundaries. Stitch flow ids live in the reserved namespace 0xffff
// so they can never collide with any tracer's own ids.

struct MergeOptions {
  /// Span name marking exchange points (core::AgentRuntime emits
  /// "exchange" spans around every knowledge-exchange round).
  std::string stitch_span = "exchange";
};

struct MergeStats {
  std::size_t tracers = 0;        ///< inputs merged
  std::size_t events = 0;         ///< span/flow events carried over
  std::size_t stitch_points = 0;  ///< stitch-span instances found
  std::size_t stitches = 0;       ///< cross-tracer flow links synthesized
};

/// Merges the tracers' records into one trace-event document.
/// Deterministic: output depends only on the tracers' recorded events and
/// their order in `tracers` (ties in sim time break by tracer index, then
/// emission order).
[[nodiscard]] Json merge_perfetto(const std::vector<const sim::Tracer*>& tracers,
                                  const MergeOptions& opts = {},
                                  MergeStats* stats = nullptr);

}  // namespace sa::exp

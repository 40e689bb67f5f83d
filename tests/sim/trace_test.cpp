// Tests for the decision-provenance tracer: span recording and nesting,
// flow links, id monotonicity, args, and the disabled path's semantics
// (allocation contracts live in telemetry_test.cpp, which owns the global
// operator-new counter).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/trace.hpp"

namespace sa::sim {
namespace {

struct Rig {
  TelemetryBus bus;
  Tracer tracer{bus};
  SubjectId subj = bus.intern_subject("rig");
  NameId op = tracer.intern_name("op");
};

TEST(Tracer, InternNameIsIdempotent) {
  Rig rig;
  const auto a = rig.tracer.intern_name("decide");
  const auto b = rig.tracer.intern_name("decide");
  EXPECT_EQ(a, b);
  EXPECT_EQ(rig.tracer.name(a), "decide");
  EXPECT_EQ(rig.tracer.names(), 2u);  // "op" + "decide"
}

TEST(Tracer, IdsAreMonotoneFromOne) {
  Rig rig;
  EXPECT_EQ(rig.tracer.last_id(), 0u);
  EXPECT_EQ(rig.tracer.next_id(), 1u);
  EXPECT_EQ(rig.tracer.next_id(), 2u);
  EXPECT_EQ(rig.tracer.last_id(), 2u);
}

TEST(Tracer, SpanRecordsBeginAndEndInOrder) {
  Rig rig;
  {
    auto span = rig.tracer.span(1.5, rig.subj, rig.op);
    EXPECT_TRUE(static_cast<bool>(span));
    EXPECT_EQ(span.id(), 1u);
    EXPECT_EQ(rig.tracer.depth(), 1u);
  }
  EXPECT_EQ(rig.tracer.depth(), 0u);
  const auto& ev = rig.tracer.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].kind, Tracer::Event::Kind::Begin);
  EXPECT_EQ(ev[1].kind, Tracer::Event::Kind::End);
  EXPECT_DOUBLE_EQ(ev[0].t, 1.5);
  EXPECT_DOUBLE_EQ(ev[1].t, 1.5);  // default end = begin time
  EXPECT_EQ(ev[0].subject, rig.subj);
  EXPECT_EQ(ev[1].subject, rig.subj);
  EXPECT_EQ(ev[0].id, ev[1].id);
  EXPECT_EQ(rig.tracer.spans(), 1u);
}

TEST(Tracer, NestedSpansCloseInnermostFirst) {
  Rig rig;
  const auto inner_name = rig.tracer.intern_name("inner");
  {
    auto outer = rig.tracer.span(0.0, rig.subj, rig.op);
    {
      auto inner = rig.tracer.span(0.0, rig.subj, inner_name);
      EXPECT_EQ(rig.tracer.depth(), 2u);
    }
    EXPECT_EQ(rig.tracer.depth(), 1u);
  }
  const auto& ev = rig.tracer.events();
  ASSERT_EQ(ev.size(), 4u);  // B(outer) B(inner) E(inner) E(outer)
  EXPECT_EQ(ev[1].name, inner_name);
  EXPECT_EQ(ev[2].name, inner_name);
  EXPECT_EQ(ev[3].name, rig.op);
}

TEST(Tracer, EndAtClosesAtLaterTime) {
  Rig rig;
  auto span = rig.tracer.span(2.0, rig.subj, rig.op);
  span.end_at(7.0);
  const auto& ev = rig.tracer.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_DOUBLE_EQ(ev[1].t, 7.0);
  // After end_at the span is inert: destruction must not double-close.
}

TEST(Tracer, ArgsAttachToTheBeginEvent) {
  Rig rig;
  const auto key = rig.tracer.intern_name("reward");
  {
    auto span = rig.tracer.span(0.0, rig.subj, rig.op);
    span.arg(key, 0.75);
  }
  const auto& ev = rig.tracer.events();
  ASSERT_EQ(ev[0].args.size(), 1u);
  EXPECT_EQ(ev[0].args[0].first, key);
  EXPECT_DOUBLE_EQ(ev[0].args[0].second, 0.75);
  EXPECT_TRUE(ev[1].args.empty());
}

TEST(Tracer, FlowPointsRecordPhaseAndId) {
  Rig rig;
  auto span = rig.tracer.span(0.0, rig.subj, rig.op);
  const auto id = rig.tracer.next_id();
  rig.tracer.flow(0.0, FlowPhase::Begin, id, rig.subj, rig.op);
  rig.tracer.flow(1.0, FlowPhase::Step, id, rig.subj, rig.op);
  rig.tracer.flow(2.0, FlowPhase::End, id, rig.subj, rig.op);
  EXPECT_EQ(rig.tracer.flows(), 3u);
  const auto& ev = rig.tracer.events();
  ASSERT_EQ(ev.size(), 4u);  // B + 3 flows (span still open)
  EXPECT_EQ(ev[1].kind, Tracer::Event::Kind::Flow);
  EXPECT_EQ(ev[1].phase, FlowPhase::Begin);
  EXPECT_EQ(ev[2].phase, FlowPhase::Step);
  EXPECT_EQ(ev[3].phase, FlowPhase::End);
  EXPECT_EQ(ev[1].id, id);
}

TEST(Tracer, FlowWithIdZeroIsDropped) {
  Rig rig;
  rig.tracer.flow(0.0, FlowPhase::Begin, 0, rig.subj, rig.op);
  EXPECT_EQ(rig.tracer.flows(), 0u);
  EXPECT_TRUE(rig.tracer.events().empty());
}

TEST(Tracer, MoveTransfersOwnershipOfTheOpenSpan) {
  Rig rig;
  {
    auto a = rig.tracer.span(0.0, rig.subj, rig.op);
    auto b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_EQ(rig.tracer.depth(), 1u);
  }
  EXPECT_EQ(rig.tracer.depth(), 0u);
  EXPECT_EQ(rig.tracer.events().size(), 2u);  // closed exactly once
}

TEST(Tracer, ClearResetsRecordButNotInternings) {
  Rig rig;
  { auto span = rig.tracer.span(0.0, rig.subj, rig.op); }
  rig.tracer.clear();
  EXPECT_TRUE(rig.tracer.events().empty());
  EXPECT_EQ(rig.tracer.spans(), 0u);
  EXPECT_EQ(rig.tracer.name(rig.op), "op");
}

TEST(Tracer, NamespaceFieldOccupiesTheHighBits) {
  TelemetryBus bus;
  Tracer tracer(bus, /*ns=*/5);
  EXPECT_EQ(tracer.trace_namespace(), 5u);
  const TraceId id = tracer.next_id();
  EXPECT_EQ(trace_namespace_of(id), 5u);
  EXPECT_EQ(trace_counter_of(id), 1u);
  EXPECT_EQ(id, (TraceId{5} << kTraceNamespaceShift) | 1u);
  // Span ids carry the namespace too, and last_id() round-trips it.
  const auto span_id = tracer.span(0.0, 0, tracer.intern_name("op")).id();
  EXPECT_EQ(trace_namespace_of(span_id), 5u);
  EXPECT_EQ(trace_counter_of(span_id), 2u);
  EXPECT_EQ(tracer.last_id(), span_id);
}

TEST(Tracer, DefaultNamespaceZeroKeepsLegacyIds) {
  Rig rig;
  // ns = 0: ids are the bare counter, byte-identical to the pre-namespace
  // encoding.
  EXPECT_EQ(rig.tracer.trace_namespace(), 0u);
  EXPECT_EQ(rig.tracer.next_id(), 1u);
  EXPECT_EQ(trace_namespace_of(1u), 0u);
  EXPECT_EQ(trace_counter_of(1u), 1u);
}

TEST(Tracer, DistinctNamespacesYieldGloballyUniqueIds) {
  // The cross-domain pattern: one tracer per domain, stitched into one
  // stream afterwards. Same counters, disjoint ids.
  TelemetryBus bus_a, bus_b;
  Tracer a(bus_a, 1);
  Tracer b(bus_b, 2);
  std::vector<TraceId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(a.next_id());
    ids.push_back(b.next_id());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "namespaced ids must never collide across tracers";
  for (const TraceId id : ids) {
    EXPECT_TRUE(trace_namespace_of(id) == 1 || trace_namespace_of(id) == 2);
  }
}

TEST(Tracer, InertSpanIsSafeToEndTwice) {
  Tracer::Span span;
  span.end();
  span.end_at(5.0);
  EXPECT_FALSE(static_cast<bool>(span));
}

}  // namespace
}  // namespace sa::sim

// Tests for the typed telemetry bus: interning, counters, ring sink
// queries, sink dispatch, and the bus's allocation-free hot path. The
// tracer's (absent = one null check, zero allocations) and the metrics
// registry's allocation contracts are asserted here too, because this
// binary links the shared operator-new counter.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"
#include "support/alloc_counter.hpp"

namespace sa::sim {
namespace {

using test::support::allocs;

TEST(TelemetryBus, CanonicalCategoriesArePreInterned) {
  TelemetryBus bus;
  EXPECT_EQ(bus.categories(), 3u);
  EXPECT_EQ(bus.category_name(TelemetryBus::kDecision), "decision");
  EXPECT_EQ(bus.category_name(TelemetryBus::kObservation), "observation");
  EXPECT_EQ(bus.category_name(TelemetryBus::kFailure), "failure");
}

TEST(TelemetryBus, InterningIsIdempotent) {
  TelemetryBus bus;
  const auto a = bus.intern_category("checkpoint");
  const auto b = bus.intern_category("checkpoint");
  EXPECT_EQ(a, b);
  EXPECT_EQ(bus.intern_category("decision"), TelemetryBus::kDecision);
  const auto s1 = bus.intern_subject("mgr");
  const auto s2 = bus.intern_subject("mgr");
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(bus.subject_name(s1), "mgr");
}

TEST(TelemetryBus, CountsPerCategory) {
  TelemetryBus bus;
  const auto subj = bus.intern_subject("x");
  bus.record(0.0, TelemetryBus::kObservation, subj, 2.0);
  bus.record(1.0, TelemetryBus::kObservation, subj, 4.0);
  bus.record(2.0, TelemetryBus::kFailure, subj, 7.0);
  EXPECT_EQ(bus.count(TelemetryBus::kObservation), 2u);
  EXPECT_EQ(bus.count(TelemetryBus::kFailure), 1u);
  EXPECT_EQ(bus.count(TelemetryBus::kDecision), 0u);
  EXPECT_EQ(bus.total(), 3u);
}

TEST(TelemetryBus, SinksSeeEventsInOrderWithDetail) {
  TelemetryBus bus;
  RingBufferSink sink;
  bus.add_sink(&sink);
  const auto subj = bus.intern_subject("net");
  bus.record(1.0, TelemetryBus::kFailure, subj, 3.0, "ttl");
  bus.record(2.0, TelemetryBus::kObservation, subj, 12.5, "delivered");
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_DOUBLE_EQ(sink.at(0).t, 1.0);
  EXPECT_EQ(sink.at(0).detail, "ttl");
  EXPECT_EQ(sink.at(1).category, TelemetryBus::kObservation);
  EXPECT_DOUBLE_EQ(sink.at(1).value, 12.5);
}

TEST(RingBufferSink, EvictsOldestBeyondCapacity) {
  TelemetryBus bus;
  RingBufferSink sink(4);
  bus.add_sink(&sink);
  const auto subj = bus.intern_subject("x");
  for (int i = 0; i < 10; ++i) {
    bus.record(i, TelemetryBus::kObservation, subj, i);
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.seen(), 10u);
  EXPECT_DOUBLE_EQ(sink.at(0).value, 6.0);  // oldest retained
  EXPECT_DOUBLE_EQ(sink.at(3).value, 9.0);  // newest
}

TEST(RingBufferSink, AtRejectsOutOfRangeIndex) {
  TelemetryBus bus;
  RingBufferSink sink(4);
  bus.add_sink(&sink);
  EXPECT_THROW((void)sink.at(0), std::out_of_range);
  const auto subj = bus.intern_subject("x");
  for (int i = 0; i < 3; ++i) {
    bus.record(i, TelemetryBus::kObservation, subj, i);
  }
  EXPECT_THROW((void)sink.at(sink.size()), std::out_of_range);
}

TEST(RingBufferSink, QueriesByCategoryAndSubject) {
  TelemetryBus bus;
  RingBufferSink sink;
  bus.add_sink(&sink);
  const auto a = bus.intern_subject("a");
  const auto b = bus.intern_subject("b");
  bus.record(0.0, TelemetryBus::kDecision, a, 1.0);
  bus.record(1.0, TelemetryBus::kFailure, b, 2.0);
  bus.record(2.0, TelemetryBus::kDecision, b, 3.0);
  const auto decisions = sink.by_category(TelemetryBus::kDecision);
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_DOUBLE_EQ(decisions[0]->value, 1.0);
  EXPECT_DOUBLE_EQ(decisions[1]->value, 3.0);
  const auto from_b = sink.by_subject(b);
  ASSERT_EQ(from_b.size(), 2u);
  EXPECT_EQ(from_b[0]->category, TelemetryBus::kFailure);
}

TEST(TelemetryBus, EnabledPathCountsWithoutBusAllocation) {
  // With a no-op sink, the bus's own hot path (counter bump + dispatch)
  // must not allocate either.
  struct NullSink : TelemetrySink {
    void on_event(const TelemetryEvent&) override {}
  };
  TelemetryBus bus;
  NullSink sink;
  bus.add_sink(&sink);
  const auto subj = bus.intern_subject("hot");
  bus.record(0.0, TelemetryBus::kObservation, subj, 1.0);  // warm per-category
  const std::uint64_t before = allocs();
  for (int i = 0; i < 10000; ++i) {
    bus.record(i, TelemetryBus::kObservation, subj, 1.0, "detail");
  }
  const std::uint64_t after = allocs();
  EXPECT_EQ(after, before);
  EXPECT_EQ(bus.count(TelemetryBus::kObservation), 10001u);
}

TEST(RingBufferSink, DeepCopiesDetailBeyondCallerLifetime) {
  // record() takes the detail as a string_view; the sink must own its copy
  // so reading it after the caller's buffer dies is valid (ASan-visible if
  // it is not).
  TelemetryBus bus;
  RingBufferSink sink;
  bus.add_sink(&sink);
  const auto subj = bus.intern_subject("x");
  {
    auto detail = std::make_unique<std::string>("a detail long enough to be "
                                                "heap-allocated for sure");
    bus.record(0.0, TelemetryBus::kFailure, subj, 1.0, *detail);
    detail->assign("clobbered");  // invalidate + overwrite the old buffer
  }  // ...then free it entirely
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.at(0).detail,
            "a detail long enough to be heap-allocated for sure");
}

// --- Tracer / MetricsRegistry allocation contracts -----------------------

TEST(Tracer, AbsentTracerPerformsNoHeapAllocation) {
  // Tracing is off where no tracer is handed in: call sites test the
  // pointer and fall back to an inert Span, which must never allocate.
  Tracer* tracer = nullptr;
  std::size_t live = 0;
  const std::uint64_t before = allocs();
  for (int i = 0; i < 10000; ++i) {
    auto span = tracer != nullptr ? tracer->span(i, 0, 0) : Tracer::Span{};
    span.arg(0, 1.0);
    if (span || span.id() != 0) ++live;
  }
  const std::uint64_t after = allocs();
  EXPECT_EQ(after, before);
  EXPECT_EQ(live, 0u);
}

TEST(MetricsRegistry, HotPathPerformsNoHeapAllocation) {
  MetricsRegistry reg;
  const auto c = reg.counter("ops");
  const auto g = reg.gauge("level");
  const auto t = reg.timer("ms");
  const std::uint64_t before = allocs();
  for (int i = 0; i < 10000; ++i) {
    reg.add(c);
    reg.set(g, static_cast<double>(i));
    reg.observe(t, 0.25);
  }
  const std::uint64_t after = allocs();
  EXPECT_EQ(after, before);
  EXPECT_DOUBLE_EQ(reg.value(c), 10000.0);
}

}  // namespace
}  // namespace sa::sim

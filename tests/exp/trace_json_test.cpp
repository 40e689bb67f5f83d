// Tests for the Chrome/Perfetto trace-event export: document shape,
// metadata tracks, B/E pairing, flow phases, and byte determinism.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "exp/trace_json.hpp"

namespace sa::exp {
namespace {

using sim::FlowPhase;
using sim::TelemetryBus;
using sim::Tracer;

std::string render(const Tracer& tracer) {
  std::ostringstream os;
  write_chrome_trace(os, tracer);
  return os.str();
}

TEST(ChromeTrace, EmptyTracerStillYieldsAValidDocument) {
  TelemetryBus bus;
  Tracer tracer(bus);
  const std::string doc = render(tracer);
  EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  // Process metadata is always present.
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(doc.find("sa-sim"), std::string::npos);
  EXPECT_EQ(doc.back(), '\n');
}

TEST(ChromeTrace, SubjectsBecomeNamedThreads) {
  TelemetryBus bus;
  Tracer tracer(bus);
  bus.intern_subject("agent.alpha");
  bus.intern_subject("runtime.alpha");
  const std::string doc = render(tracer);
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("agent.alpha"), std::string::npos);
  EXPECT_NE(doc.find("runtime.alpha"), std::string::npos);
}

TEST(ChromeTrace, SpansBecomeBeginEndPairsWithTraceIdArg) {
  TelemetryBus bus;
  Tracer tracer(bus);
  const auto subj = bus.intern_subject("mgr");
  const auto name = tracer.intern_name("decide");
  const auto key = tracer.intern_name("action_index");
  {
    auto span = tracer.span(1.5, subj, name);
    span.arg(key, 2.0);
  }
  const std::string doc = render(tracer);
  EXPECT_NE(doc.find("\"name\":\"decide\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(doc.find("\"ts\":1.5e+06"), std::string::npos);  // 1.5 s in us
  EXPECT_NE(doc.find("\"trace_id\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"action_index\":2.0"), std::string::npos);
}

TEST(ChromeTrace, FlowPhasesMapToChromePhases) {
  TelemetryBus bus;
  Tracer tracer(bus);
  const auto subj = bus.intern_subject("mgr");
  const auto name = tracer.intern_name("decision");
  auto span = tracer.span(0.0, subj, name);
  const auto id = tracer.next_id();
  tracer.flow(0.0, FlowPhase::Begin, id, subj, name);
  tracer.flow(1.0, FlowPhase::Step, id, subj, name);
  tracer.flow(2.0, FlowPhase::End, id, subj, name);
  span.end_at(2.0);
  const std::string doc = render(tracer);
  EXPECT_NE(doc.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"f\""), std::string::npos);
  // The terminating point binds to the enclosing slice.
  EXPECT_NE(doc.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"flow\""), std::string::npos);
}

TEST(ChromeTrace, OutputIsByteDeterministic) {
  auto run = [] {
    TelemetryBus bus;
    Tracer tracer(bus);
    const auto subj = bus.intern_subject("x");
    const auto name = tracer.intern_name("op");
    for (int i = 0; i < 20; ++i) {
      auto span = tracer.span(i * 0.5, subj, name);
      span.arg(name, i * 1.25);
      tracer.flow(i * 0.5, FlowPhase::Begin, span.id(), subj, name);
    }
    return render(tracer);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace sa::exp

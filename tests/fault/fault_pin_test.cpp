// Fault-evidence pins on the E15 city (ctest -L faults).
//
// Every onset the injector applies is mirrored to telemetry as one
// kFailure event whose detail names the fault: "<kind> <surface>#<unit>".
// A sink downstream (the serve layer's SSE stream, a JSONL export) sees
// those bytes, so a change to how the injector keeps or formats its
// records must leave them alone. This pins the digest of every kFailure a
// RingBufferSink retains over a faulted city run (the injector's among the
// substrates' own).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "gen/scenario.hpp"
#include "gen/spec.hpp"
#include "sim/telemetry.hpp"
#include "support/fingerprint.hpp"

namespace sa::fault {
namespace {

TEST(FaultPin, CityFailureDetailsAreStable) {
  const auto spec = gen::ScenarioSpec::parse(
      std::string("world:horizon=1200;") + gen::ScenarioSpec::city_spec());
  sim::TelemetryBus bus;
  sim::RingBufferSink sink(1u << 20);
  bus.add_sink(&sink);
  gen::Scenario::Options opts;
  opts.self_aware = true;
  opts.telemetry = &bus;
  gen::Scenario world(spec, 61, opts);
  world.run_until(1200.0);

  ASSERT_EQ(sink.seen(), sink.size()) << "the sink evicted events";
  const auto failures = sink.by_category(sim::TelemetryBus::kFailure);
  std::size_t onsets = 0;
  test::support::Fingerprint fp;
  for (const sim::RingBufferSink::Rec* r : failures) {
    const std::string& subject = bus.subject_name(r->subject);
    if (subject == "fault.injector") ++onsets;
    fp.add(r->t);
    fp.add(r->value);
    fp.add(subject);
    fp.add(r->detail);
  }
  // Substrates report their own failures too; one kFailure per onset is
  // the injector's.
  ASSERT_EQ(onsets, world.injector().injected());
  EXPECT_EQ(failures.size(), 1142u);
  EXPECT_EQ(fp.value(), 0x50e77b02df493f6cull)
      << std::hex << "digest 0x" << fp.value();
}

}  // namespace
}  // namespace sa::fault

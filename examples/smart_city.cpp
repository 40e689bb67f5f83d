// Example: a whole smart city generated from one spec string.
//
// gen::ScenarioSpec::city_spec() expands — deterministically, from per-section
// seeded streams — into sixteen street cameras, a 4x6 cognitive packet
// network, a 32-node volunteer-cloud backend and four multicore edge
// appliances, all on ONE discrete-event engine, with a standing fault
// environment pressing on every layer. The substrates are coupled the way
// a real deployment would be: camera epoch reports ride the packet
// network to the backend; lost reports shrink backend demand; backend
// saturation offloads analytics onto the edge nodes; and every 30
// simulated seconds the edge managers and the autoscaler swap public
// knowledge.
//
// Run: ./build/examples/smart_city
//      ./build/examples/smart_city --scenario "cameras;cpn:rows=3,cols=3"
//      ./build/examples/smart_city --scenario "seed=7;multicore;faults:pressure=4"
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "gen/scenario.hpp"
#include "gen/spec.hpp"
#include "sim/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace sa;

  std::string spec_text = gen::ScenarioSpec::city_spec();
  std::uint64_t run_seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      spec_text = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      run_seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--scenario SPEC] [--seed N]\n",
                   argv[0]);
      return 2;
    }
  }

  gen::ScenarioSpec spec;
  try {
    spec = gen::ScenarioSpec::parse(spec_text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smart_city: %s\n", e.what());
    return 2;
  }
  std::printf("scenario: %s\n", spec.to_string().c_str());
  std::printf("seed    : %llu\n\n",
              static_cast<unsigned long long>(run_seed));

  // One telemetry bus sees every observation, decision and failure from
  // all four substrates plus the fault injector.
  sim::TelemetryBus bus;
  sim::RingBufferSink recent(4096);
  bus.add_sink(&recent);

  gen::Scenario::Options opts;
  opts.telemetry = &bus;
  gen::Scenario city(spec, run_seed, opts);

  std::printf("fault plan: %s\n\n",
              city.fault_plan().processes.empty()
                  ? "(none)"
                  : city.fault_plan().to_string().c_str());

  city.run();

  std::printf("after %.0f s: %zu events executed\n", city.engine().now(),
              city.engine().executed());
  for (const auto& [key, value] : city.summary()) {
    std::printf("  %-18s %10.3f\n", key.c_str(), value);
  }
  std::printf("\nfaults  : %zu injected, %zu restored, %zu active\n",
              city.injector().injected(), city.injector().restored(),
              city.injector().active());
  std::printf("exchange: %zu items over %.0f s periods\n",
              city.runtime().items_exchanged(), spec.world.exchange_s);
  std::printf("telemetry: %zu observations, %zu decisions, %zu failures\n",
              bus.count(sim::TelemetryBus::kObservation),
              bus.count(sim::TelemetryBus::kDecision),
              bus.count(sim::TelemetryBus::kFailure));
  return 0;
}

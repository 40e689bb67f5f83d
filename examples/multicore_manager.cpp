// Example: self-aware run-time management of a big.LITTLE chip.
//
// A phase-changing workload (steady / burst / latency-critical) runs on a
// 2-big + 4-LITTLE platform. The self-aware manager senses epoch
// statistics, forecasts demand, and picks the DVFS + mapping configuration
// whose *predicted* outcome maximises the multi-objective goal model. The
// timeline prints what it chose as each phase comes and goes.
//
// Run: ./build/examples/multicore_manager
#include <cstdio>

#include "multicore/manager.hpp"
#include "multicore/workload.hpp"

int main() {
  using namespace sa::multicore;

  Platform platform(PlatformConfig::big_little(2, 4), 2030);
  auto workload = PhasedWorkload::standard();

  Manager::Params params;
  params.variant = Manager::Variant::SelfAware;
  params.seed = 2030;
  Manager manager(platform, params);

  std::printf("epoch  phase        config            util  power  p95_lat\n");
  for (int e = 1; e <= 480; ++e) {
    workload.apply(platform);
    const double u = manager.run_epoch();
    if (e % 24 == 0) {
      const auto& phase = workload.current(platform.now() - 0.25);
      const sa::core::Explainer& ex = manager.agent().explainer();
      const std::size_t last = ex.at(ex.size() - 1).action_index;
      std::printf("%5d  %-11s  %-16s  %.2f  %5.2f   %6.3f\n", e,
                  phase.name.c_str(),
                  manager.agent().actions()[last].c_str(), u,
                  manager.last_stats().mean_power,
                  manager.last_stats().p95_latency);
    }
  }

  std::printf("\nRun summary: mean utility %.3f, mean power %.2f W, "
              "power-cap violations %.1f%%\n",
              manager.utility().mean(), manager.power().mean(),
              manager.cap_violation_rate() * 100.0);
  std::printf("\nThe manager explains its last reconfiguration:\n  %s\n",
              manager.agent().why_last().c_str());
  return 0;
}

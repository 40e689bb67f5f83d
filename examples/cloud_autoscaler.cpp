// Example: self-aware autoscaling on a volunteer cloud.
//
// Thirty volunteer machines with hidden, heterogeneous reliability donate
// capacity; demand follows a steep diurnal cycle with random bursts; newly
// enrolled nodes take an epoch to become useful. The self-aware autoscaler
// forecasts demand, learns which volunteers actually deliver, and scales by
// simulating each option against its self-model. The timeline shows it
// riding the demand wave.
//
// Run: ./build/examples/cloud_autoscaler
#include <cstdio>

#include "cloud/autoscaler.hpp"

int main() {
  using namespace sa::cloud;

  Cluster::Params cp;
  cp.nodes = 30;
  cp.boot_s = 10.0;
  cp.seed = 2028;
  Cluster cluster(cp);

  DemandModel::Params dp;
  dp.base = 80.0;
  dp.diurnal_amp = 0.5;
  dp.period_s = 400.0;
  dp.burst_prob = 0.04;
  dp.burst_mult = 2.0;
  DemandModel demand(dp);

  Autoscaler::Params ap;
  ap.variant = Autoscaler::Variant::SelfAware;
  ap.seasonal_epochs = 40;
  ap.seed = 2028;
  Autoscaler scaler(cluster, demand, ap);

  std::printf("epoch  demand  enrolled  up  capacity    sla   cost\n");
  for (int e = 1; e <= 160; ++e) {
    const auto ep = scaler.run_epoch();
    if (e % 8 == 0) {
      std::printf("%5d  %6.1f  %8zu  %2zu  %8.1f  %.3f  %5.0f\n", e,
                  ep.arrival_rate, ep.enrolled, ep.up_enrolled, ep.capacity,
                  ep.sla, ep.cost);
    }
  }

  std::printf("\nRun summary: mean SLA %.3f, mean cost %.1f/epoch, "
              "SLA-violation rate %.2f\n",
              scaler.sla().mean(), scaler.cost().mean(),
              scaler.sla_violation_rate());

  // What has it learned about the volunteers?
  auto* ia = scaler.agent().interaction();
  if (ia != nullptr) {
    std::printf("\nLearned volunteer reliability (nodes interacted with):\n");
    int shown = 0;
    for (const auto& peer : ia->peers()) {
      if (ia->interactions(peer) < 20 || shown >= 6) continue;
      std::printf("  %-6s reliability %.2f over %zu epochs\n", peer.c_str(),
                  ia->reliability(peer), ia->interactions(peer));
      ++shown;
    }
  }

  std::printf("\nWhy it last scaled:\n  %s\n",
              scaler.agent().why_last().c_str());
  return 0;
}

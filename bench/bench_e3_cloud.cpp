// E3 — self-awareness under volunteer-cloud uncertainty
// (paper Section II; Elhabbash et al. [14][15]; Chen & Bahsoon [58]).
//
// Claim operationalised: when capacity is donated by unreliable volunteers
// and demand is diurnal and bursty, a self-aware autoscaler (demand
// forecasting + learned per-node reliability + model-predictive scaling)
// sustains a better SLA/cost operating point than static provisioning or
// threshold-reactive scaling — and the gap widens as nodes get flakier.
//
// Table: per node-flakiness level (MTTF multiplier), per variant:
//        SLA, SLA-violation rate, cost, utility.
#include <iostream>
#include <string>
#include <vector>

#include "cloud/autoscaler.hpp"
#include "exp/harness.hpp"
#include "sim/report.hpp"
#include "sim/stats.hpp"

namespace {

using namespace sa;
using namespace sa::cloud;

constexpr int kEpochs = 400;
const std::vector<std::uint64_t> kSeeds{21, 22, 23};

exp::TaskOutput run(Autoscaler::Variant v, double mttf_mult,
                    const exp::TaskContext& ctx) {
  const std::uint64_t seed = ctx.seed;
  Cluster::Params cp;
  cp.nodes = 30;
  cp.mttf_mean_s = 300.0 * mttf_mult;
  cp.seed = seed;
  Cluster cluster(cp);
  DemandModel::Params dp;
  dp.base = 80.0;
  dp.diurnal_amp = 0.4;
  dp.burst_prob = 0.03;
  dp.burst_mult = 2.0;
  DemandModel demand(dp);
  Autoscaler::Params ap;
  ap.variant = v;
  ap.seed = seed;
  ap.initial_nodes = 12;
  // Observability hooks from the harness's traced cell (--trace /
  // --metrics); sim-time derived, so the trajectory is unchanged.
  ap.telemetry = ctx.telemetry;
  ap.tracer = ctx.tracer;
  Autoscaler as(cluster, demand, ap);

  sim::RunningStats tail_sla, tail_cost;
  std::size_t viol = 0, judged = 0;
  for (int e = 0; e < kEpochs; ++e) {
    const auto ep = as.run_epoch();
    if (e >= kEpochs / 4) {  // skip the cold start
      tail_sla.add(ep.sla);
      tail_cost.add(ep.cost);
      ++judged;
      if (ep.sla < Autoscaler::kSlaTarget) ++viol;
    }
  }
  return {{{"sla", tail_sla.mean()},
           {"viol_rate",
            static_cast<double>(viol) / static_cast<double>(judged)},
           {"cost_per_epoch", tail_cost.mean()},
           {"utility", as.utility().mean()}}};
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h("e3_cloud", argc, argv);
  std::cout << "E3: autoscaling a volunteer cloud, " << kEpochs
            << " epochs x 10 s, diurnal+bursty demand, "
            << h.seeds_for(kSeeds).size()
            << " seeds. MTTF multiplier scales node flakiness (lower = "
               "flakier).\n\n";

  struct Config {
    double mttf_mult;
    Autoscaler::Variant variant;
  };
  std::vector<Config> configs;
  exp::Grid g;
  g.name = "e3";
  g.seeds = kSeeds;
  for (const double mttf_mult : {2.0, 1.0, 0.5}) {
    for (const auto v :
         {Autoscaler::Variant::Static, Autoscaler::Variant::Reactive,
          Autoscaler::Variant::SelfAware}) {
      configs.push_back({mttf_mult, v});
      g.variants.push_back(std::string(Autoscaler::variant_name(v)) + "@x" +
                           std::to_string(mttf_mult).substr(0, 3));
    }
  }
  g.task = [&configs](const exp::TaskContext& ctx) {
    const auto& cfg = configs[ctx.variant];
    return run(cfg.variant, cfg.mttf_mult, ctx);
  };
  const auto res = h.run(std::move(g));

  sim::Table t("E3.1  SLA / cost by variant and node reliability",
               {"mttf_x", "variant", "sla", "viol_rate", "cost/epoch",
                "utility"});
  t.precision(0, 1);
  for (std::size_t v = 0; v < configs.size(); ++v) {
    t.add_row({configs[v].mttf_mult,
               std::string(Autoscaler::variant_name(configs[v].variant)),
               res.mean(v, "sla"), res.mean(v, "viol_rate"),
               res.mean(v, "cost_per_epoch"), res.mean(v, "utility")});
  }
  t.print(std::cout);
  return h.finish();
}

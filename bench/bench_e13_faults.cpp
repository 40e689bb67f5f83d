// E13 — fault injection and graceful degradation
// (paper Sections III and VII: self-awareness is claimed to pay off
// precisely "in complex, uncertain and dynamic environments").
//
// Claim operationalised, two grids sharing one deterministic fault plan
// per seed (variants within a seed face the *identical* fault schedule):
//
//   e13.cpn       — permanent link losses hit a packet network mid-run.
//                   Static shortest-path routing keeps sending onto dead
//                   links and never recovers (censored: recovered = 0);
//                   the self-aware Q-router observes the drops and routes
//                   around, regaining >= 90% of its pre-fault delivery
//                   rate within a finite time-to-recovery.
//   e13.multicore — transient core failures and DVFS caps hit a chip.
//                   The self-aware manager runs a DegradationPolicy fed by
//                   the injector ("fault.active"): it sheds awareness
//                   levels under fault pressure and recovers them after,
//                   reporting the degraded-mode dwell; the reactive
//                   baseline just rides the faults out.
//
// All fault randomness comes from the plan's own seeded streams
// (sa::fault), so every metric is bitwise-identical across --jobs N.
// --fault-plan SPEC overlays a custom plan on both grids.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "core/degrade.hpp"
#include "core/runtime.hpp"
#include "cpn/network.hpp"
#include "cpn/traffic.hpp"
#include "exp/harness.hpp"
#include "fault/adapters.hpp"
#include "fault/fault.hpp"
#include "multicore/manager.hpp"
#include "multicore/platform.hpp"
#include "serve/bridge.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"

namespace {

using namespace sa;

const std::vector<std::uint64_t> kSeeds{41, 42, 43};

// -- e13.cpn: permanent link loss, recovery of delivery rate ----------------

constexpr double kCpnHorizon = 6000.0;
constexpr double kCpnWindow = 250.0;    // delivery measured per window
constexpr double kFaultStart = 2000.0;  // fault window (plan start/end)
constexpr double kFaultEnd = 2500.0;
constexpr double kRecoverFrac = 0.9;    // of pre-fault delivery

fault::FaultPlan cpn_plan(const std::string& spec, std::uint64_t seed) {
  fault::FaultPlan plan =
      spec.empty()
          ? fault::FaultPlan::parse("link-loss:rate=0.01,dur=-1,start=2000,"
                                    "end=2500,burst=2")
          : fault::FaultPlan::parse(spec);
  if (plan.seed == 0) plan.seed = seed;  // same schedule for both variants
  return plan;
}

exp::TaskOutput run_cpn(cpn::PacketNetwork::Router router,
                        const std::string& plan_spec,
                        const exp::TaskContext& ctx) {
  const std::uint64_t seed = ctx.seed;
  const auto topo = cpn::Topology::grid(4, 6, 4, seed);
  cpn::PacketNetwork::Params np;
  np.router = router;
  np.seed = seed;
  cpn::PacketNetwork net(topo, np);
  if (ctx.telemetry != nullptr) net.set_telemetry(ctx.telemetry);

  cpn::TrafficParams tp;  // steady legitimate traffic, no attack
  tp.flows = 8;
  tp.legit_rate = 2.0;
  tp.seed = seed;
  cpn::TrafficGenerator gen(topo, tp);

  sim::Engine engine;
  fault::Injector inj;
  fault::bind_packet_network(inj, net);
  if (ctx.telemetry != nullptr) inj.set_telemetry(ctx.telemetry);
  const fault::FaultPlan plan = cpn_plan(plan_spec, seed);
  inj.bind(engine, plan);
  gen.bind(engine, net);
  net.bind(engine);
  // Served cell: expose the engine and injector live (POST /control can
  // fire one-shot faults into this run at step boundaries).
  if (ctx.bridge != nullptr) {
    ctx.bridge->set_injector(&inj);
    ctx.bridge->attach(engine);
  }

  // Windowed delivery: the goal signal the recovery detection runs over.
  std::vector<double> window_delivery;
  double goal_sum = 0.0;
  for (double horizon = kCpnWindow; horizon <= kCpnHorizon;
       horizon += kCpnWindow) {
    engine.run_until(horizon);
    const auto s = net.harvest();
    window_delivery.push_back(s.delivery_rate());
    goal_sum += s.delivery_rate();
  }

  // Pre-fault baseline over windows fully before the fault onset.
  double base_sum = 0.0;
  std::size_t base_n = 0;
  for (std::size_t w = 0; w < window_delivery.size(); ++w) {
    if ((static_cast<double>(w) + 1.0) * kCpnWindow <= kFaultStart) {
      base_sum += window_delivery[w];
      ++base_n;
    }
  }
  const double baseline = base_n ? base_sum / static_cast<double>(base_n) : 1.0;

  // Time-to-recovery: first window after the last fault onset whose
  // delivery regains kRecoverFrac of the baseline. Censored runs report
  // the remaining horizon and recovered = 0.
  const double last_onset =
      inj.injected() > 0 ? inj.last_onset() : kFaultStart;
  double recovery_s = kCpnHorizon - last_onset;
  double recovered = 0.0;
  for (std::size_t w = 0; w < window_delivery.size(); ++w) {
    const double w_end = (static_cast<double>(w) + 1.0) * kCpnWindow;
    if (w_end <= last_onset) continue;
    if (window_delivery[w] >= kRecoverFrac * baseline) {
      recovery_s = w_end - last_onset;
      recovered = 1.0;
      break;
    }
  }

  exp::Metrics m;
  m.emplace_back("goal_attain",
                 goal_sum / static_cast<double>(window_delivery.size()));
  m.emplace_back("pre_fault_delivery", baseline);
  m.emplace_back("recovered", recovered);
  m.emplace_back("recovery_s", recovery_s);
  m.emplace_back("faults", static_cast<double>(inj.injected()));
  return {std::move(m)};
}

// -- e13.multicore: transient core failures + DVFS caps, degradation -------

constexpr double kMcEpoch = 0.5;
constexpr double kMcHorizon = 120.0;

fault::FaultPlan mc_plan(const std::string& spec, std::uint64_t seed) {
  fault::FaultPlan plan =
      spec.empty()
          ? fault::FaultPlan::parse(
                "core-fail:rate=0.08,dur=8,burst=2,start=30,end=90;"
                "freq-cap:rate=0.03,dur=12,mag=0,start=30,end=90")
          : fault::FaultPlan::parse(spec);
  if (plan.seed == 0) plan.seed = seed;
  return plan;
}

exp::TaskOutput run_multicore(multicore::Manager::Variant variant,
                              const std::string& plan_spec,
                              const exp::TaskContext& ctx) {
  const std::uint64_t seed = ctx.seed;
  multicore::Platform platform(multicore::PlatformConfig::big_little(2, 2),
                               seed);
  platform.set_workload(30.0, 0.4, 0.6);

  multicore::Manager::Params mp;
  mp.variant = variant;
  mp.seed = seed;
  mp.epoch_s = kMcEpoch;
  if (ctx.telemetry != nullptr) mp.telemetry = ctx.telemetry;
  if (ctx.tracer != nullptr) mp.tracer = ctx.tracer;
  multicore::Manager mgr(platform, mp);

  sim::Engine engine;
  mgr.bind(engine, kMcEpoch);

  fault::Injector inj;
  fault::bind_platform(inj, platform);
  if (ctx.telemetry != nullptr) inj.set_telemetry(ctx.telemetry);
  const fault::FaultPlan plan = mc_plan(plan_spec, seed);
  inj.bind(engine, plan);

  // The self-aware variant watches the injector through its KB and sheds
  // awareness levels under fault pressure (deterministic trigger: the
  // fault.active counter, never wall-clock).
  core::AgentRuntime rt(engine);
  std::unique_ptr<core::DegradationPolicy> policy;
  if (variant == multicore::Manager::Variant::SelfAware) {
    fault::feed_agent(inj, mgr.agent());
    core::DegradationPolicy::Params dp;
    dp.fault_active_breach = 2.0;
    dp.breach_updates = 2;
    dp.recover_updates = 4;
    policy = std::make_unique<core::DegradationPolicy>(mgr.agent(), dp);
    rt.schedule_degradation(*policy, kMcEpoch);
  }

  // Served cell: /status reports this agent's active levels and ladder
  // position, /control can inject extra faults mid-run.
  if (ctx.bridge != nullptr) {
    ctx.bridge->add_agent(&mgr.agent());
    ctx.bridge->add_degradation(policy.get());
    ctx.bridge->set_injector(&inj);
    ctx.bridge->attach(engine);
  }

  engine.run_until(kMcHorizon);

  exp::Metrics m;
  m.emplace_back("goal_attain", mgr.utility().mean());
  m.emplace_back("throughput", mgr.throughput().mean());
  m.emplace_back("faults", static_cast<double>(inj.injected()));
  m.emplace_back("degraded_dwell_s",
                 policy ? policy->degraded_dwell() : 0.0);
  m.emplace_back("degradations",
                 policy ? static_cast<double>(policy->degradations()) : 0.0);
  m.emplace_back("recoveries",
                 policy ? static_cast<double>(policy->recoveries()) : 0.0);

  std::string note;
  if (policy != nullptr) {
    // Surface the most recent degradation/recovery explanation — the
    // transition-rendering path of Explanation::render().
    const auto all = mgr.agent().explainer().all();
    for (auto it = all.rbegin(); it != all.rend(); ++it) {
      if (!it->from_mode.empty()) {
        note = it->render();
        break;
      }
    }
  }
  return {std::move(m), std::move(note)};
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h("e13_faults", argc, argv);
  const std::string plan_spec = h.options().fault_plan;
  std::cout << "E13: deterministic fault injection — recovery and graceful "
               "degradation.\nGrid 1: permanent link losses vs routing "
               "self-awareness (CPN). Grid 2:\ntransient core failures + "
               "DVFS caps vs a degradation-aware manager (multicore).\n"
            << h.seeds_for(kSeeds).size() << " seeds";
  if (!plan_spec.empty()) std::cout << "; fault plan: " << plan_spec;
  std::cout << ".\n\n";

  exp::Grid g1;
  g1.name = "e13.cpn";
  g1.variants = {"static", "self-aware (q-routing)"};
  g1.seeds = kSeeds;
  g1.task = [&plan_spec](const exp::TaskContext& ctx) {
    return run_cpn(ctx.variant == 0 ? cpn::PacketNetwork::Router::Static
                                    : cpn::PacketNetwork::Router::QRouting,
                   plan_spec, ctx);
  };
  const auto r1 = h.run(std::move(g1));

  sim::Table t1("E13.1  permanent link loss: delivery recovery (CPN)",
                {"router", "goal_attain", "pre_fault", "recovered",
                 "recovery_s", "faults"});
  for (std::size_t v = 0; v < r1.variants.size(); ++v) {
    t1.add_row({r1.variants[v], r1.mean(v, "goal_attain"),
                r1.mean(v, "pre_fault_delivery"), r1.mean(v, "recovered"),
                r1.mean(v, "recovery_s"), r1.mean(v, "faults")});
  }
  t1.print(std::cout);

  exp::Grid g2;
  g2.name = "e13.multicore";
  g2.variants = {"reactive", "self-aware"};
  g2.seeds = kSeeds;
  g2.task = [&plan_spec](const exp::TaskContext& ctx) {
    return run_multicore(ctx.variant == 0
                             ? multicore::Manager::Variant::Reactive
                             : multicore::Manager::Variant::SelfAware,
                         plan_spec, ctx);
  };
  const auto r2 = h.run(std::move(g2));

  sim::Table t2("E13.2  core failures + DVFS caps: graceful degradation",
                {"manager", "goal_attain", "throughput", "faults",
                 "dwell_s", "degr", "recov"});
  for (std::size_t v = 0; v < r2.variants.size(); ++v) {
    t2.add_row({r2.variants[v], r2.mean(v, "goal_attain"),
                r2.mean(v, "throughput"), r2.mean(v, "faults"),
                r2.mean(v, "degraded_dwell_s"), r2.mean(v, "degradations"),
                r2.mean(v, "recoveries")});
  }
  t2.print(std::cout);
  if (!r2.note(1).empty()) {
    std::cout << "\nSample degradation explanation: " << r2.note(1) << "\n";
  }
  return h.finish();
}

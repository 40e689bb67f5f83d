// Parallel-determinism regression: the sa::exp runner must produce
// byte-identical results whatever the thread count, on real substrate
// workloads (not just toy tasks). These are reduced-size versions of the
// E1 (multicore management) and E4 (CPN under DoS) grids — the two
// heaviest simulators — serialised through the timing-free JSON form and
// compared as strings.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "cpn/network.hpp"
#include "cpn/traffic.hpp"
#include "exp/harness.hpp"
#include "exp/runner.hpp"
#include "fault/adapters.hpp"
#include "fault/fault.hpp"
#include "multicore/manager.hpp"
#include "multicore/workload.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "support/metamorphic.hpp"

namespace {

using namespace sa;
using test::support::byte_identical;
using test::support::parallel_jobs;
using test::support::thread_count_invariant;

/// Reduced E1: two manager variants on the phased big.LITTLE workload.
exp::Grid multicore_grid() {
  exp::Grid g;
  g.name = "e1.reduced";
  g.variants = {"static", "self-aware"};
  g.seeds = {11, 12};
  g.task = [](const exp::TaskContext& ctx) -> exp::TaskOutput {
    multicore::Platform platform(
        multicore::PlatformConfig::big_little(2, 4), ctx.seed);
    auto workload = multicore::PhasedWorkload::standard();
    multicore::Manager::Params p;
    p.variant = ctx.variant == 0 ? multicore::Manager::Variant::Static
                                 : multicore::Manager::Variant::SelfAware;
    p.seed = ctx.seed;
    multicore::Manager mgr(platform, p);
    sim::RunningStats utility, power, latency;
    for (int i = 0; i < 120; ++i) {
      workload.apply(platform);
      utility.add(mgr.run_epoch());
      power.add(mgr.last_stats().mean_power);
      latency.add(mgr.last_stats().p95_latency);
    }
    return {{{"utility", utility.mean()},
             {"power_w", power.mean()},
             {"p95_s", latency.mean()},
             {"cap_viol", mgr.cap_violation_rate()}}};
  };
  return g;
}

/// Reduced E4: static vs self-aware routing through a short DoS window.
exp::Grid cpn_grid() {
  exp::Grid g;
  g.name = "e4.reduced";
  g.variants = {"static", "self-aware"};
  g.seeds = {41, 42};
  g.task = [](const exp::TaskContext& ctx) -> exp::TaskOutput {
    const auto topo = cpn::Topology::grid(4, 6, 4, ctx.seed);
    cpn::PacketNetwork::Params np;
    np.router = ctx.variant == 0 ? cpn::PacketNetwork::Router::Static
                                 : cpn::PacketNetwork::Router::QRouting;
    np.dos_defence = ctx.variant == 1;
    np.seed = ctx.seed;
    cpn::PacketNetwork net(topo, np);
    cpn::TrafficParams tp;
    tp.flows = 8;
    tp.legit_rate = 2.0;
    tp.attack_start = 300;
    tp.attack_end = 600;
    tp.attack_rate = 25.0;
    tp.attackers = 3;
    tp.seed = ctx.seed;
    cpn::TrafficGenerator gen(topo, tp);

    exp::Metrics m;
    const char* const windows[] = {"before", "during", "after"};
    for (const char* window : windows) {
      for (int i = 0; i < 300; ++i) {
        gen.tick(net);
        net.step();
      }
      const auto s = net.harvest();
      const std::string prefix = std::string(window) + ".";
      m.emplace_back(prefix + "delivery", s.delivery_rate());
      m.emplace_back(prefix + "mean_lat", s.mean_latency);
      m.emplace_back(prefix + "p95_lat", s.p95_latency);
    }
    return {std::move(m)};
  };
  return g;
}

/// Reduced E1 driven by the event kernel: same physics, but the manager is
/// bound to a sim::Engine (order 1) with the workload phase applied as a
/// dynamics event (order 0) at each epoch boundary, plus a passive monitor
/// agent stepping at an incommensurate-looking (but dyadic) 0.75 s period
/// to prove co-scheduling does not perturb the trajectory.
exp::Grid multicore_engine_grid() {
  exp::Grid g;
  g.name = "e1.reduced";
  g.variants = {"static", "self-aware"};
  g.seeds = {11, 12};
  g.task = [](const exp::TaskContext& ctx) -> exp::TaskOutput {
    multicore::Platform platform(
        multicore::PlatformConfig::big_little(2, 4), ctx.seed);
    auto workload = multicore::PhasedWorkload::standard();
    multicore::Manager::Params p;
    p.variant = ctx.variant == 0 ? multicore::Manager::Variant::Static
                                 : multicore::Manager::Variant::SelfAware;
    p.seed = ctx.seed;
    multicore::Manager mgr(platform, p);

    sim::Engine engine;
    core::AgentRuntime rt(engine);
    engine.every(p.epoch_s,
                 [&] {
                   workload.apply(platform);
                   return true;
                 },
                 core::AgentRuntime::kOrderDynamics);
    sim::RunningStats utility, power, latency;
    mgr.bind(engine, 0.0, [&](double u) {
      utility.add(u);
      power.add(mgr.last_stats().mean_power);
      latency.add(mgr.last_stats().p95_latency);
    });
    // Passive observer with its own seed: reads harvested stats only, so it
    // must not change what the manager does.
    core::AgentConfig monitor_cfg;
    monitor_cfg.seed = 999;
    core::SelfAwareAgent monitor("monitor", monitor_cfg);
    monitor.add_sensor("power", [&] { return mgr.last_stats().mean_power; });
    rt.schedule(monitor, 0.75);

    engine.run_until(120 * p.epoch_s);
    return {{{"utility", utility.mean()},
             {"power_w", power.mean()},
             {"p95_s", latency.mean()},
             {"cap_viol", mgr.cap_violation_rate()}}};
  };
  return g;
}

/// Reduced E4 driven by the event kernel: generator and network bound as
/// two order-0 streams (registration order = per-tick order), windows
/// realised as run_until() horizons.
exp::Grid cpn_engine_grid() {
  exp::Grid g;
  g.name = "e4.reduced";
  g.variants = {"static", "self-aware"};
  g.seeds = {41, 42};
  g.task = [](const exp::TaskContext& ctx) -> exp::TaskOutput {
    const auto topo = cpn::Topology::grid(4, 6, 4, ctx.seed);
    cpn::PacketNetwork::Params np;
    np.router = ctx.variant == 0 ? cpn::PacketNetwork::Router::Static
                                 : cpn::PacketNetwork::Router::QRouting;
    np.dos_defence = ctx.variant == 1;
    np.seed = ctx.seed;
    cpn::PacketNetwork net(topo, np);
    cpn::TrafficParams tp;
    tp.flows = 8;
    tp.legit_rate = 2.0;
    tp.attack_start = 300;
    tp.attack_end = 600;
    tp.attack_rate = 25.0;
    tp.attackers = 3;
    tp.seed = ctx.seed;
    cpn::TrafficGenerator gen(topo, tp);

    sim::Engine engine;
    gen.bind(engine, net);  // injection first...
    net.bind(engine);       // ...then transit, every tick

    exp::Metrics m;
    const char* const windows[] = {"before", "during", "after"};
    double horizon = 0.0;
    for (const char* window : windows) {
      horizon += 300.0;
      engine.run_until(horizon);
      const auto s = net.harvest();
      const std::string prefix = std::string(window) + ".";
      m.emplace_back(prefix + "delivery", s.delivery_rate());
      m.emplace_back(prefix + "mean_lat", s.mean_latency);
      m.emplace_back(prefix + "p95_lat", s.p95_latency);
    }
    return {std::move(m)};
  };
  return g;
}

/// Reduced E13: exactly the engine-driven E4 (same topology, traffic and
/// DoS window) with a fault injector bound in front — so an empty plan is
/// directly comparable against cpn_engine_grid, and a seeded plan's
/// faulted trajectory must be thread-count invariant.
exp::Grid cpn_faulted_grid(const std::string& plan_spec) {
  exp::Grid g;
  g.name = "e13.reduced";
  g.variants = {"static", "self-aware"};
  g.seeds = {41, 42};
  g.task = [plan_spec](const exp::TaskContext& ctx) -> exp::TaskOutput {
    const auto topo = cpn::Topology::grid(4, 6, 4, ctx.seed);
    cpn::PacketNetwork::Params np;
    np.router = ctx.variant == 0 ? cpn::PacketNetwork::Router::Static
                                 : cpn::PacketNetwork::Router::QRouting;
    np.dos_defence = ctx.variant == 1;
    np.seed = ctx.seed;
    cpn::PacketNetwork net(topo, np);
    cpn::TrafficParams tp;
    tp.flows = 8;
    tp.legit_rate = 2.0;
    tp.attack_start = 300;
    tp.attack_end = 600;
    tp.attack_rate = 25.0;
    tp.attackers = 3;
    tp.seed = ctx.seed;
    cpn::TrafficGenerator gen(topo, tp);

    sim::Engine engine;
    fault::Injector inj;
    fault::bind_packet_network(inj, net);
    auto plan = fault::FaultPlan::parse(plan_spec);
    if (!plan.empty() && plan.seed == 0) plan.seed = ctx.seed;
    inj.bind(engine, plan);
    gen.bind(engine, net);
    net.bind(engine);

    exp::Metrics m;
    double horizon = 0.0;
    for (const char* window : {"before", "during", "after"}) {
      horizon += 300.0;
      engine.run_until(horizon);
      const auto s = net.harvest();
      const std::string prefix = std::string(window) + ".";
      m.emplace_back(prefix + "delivery", s.delivery_rate());
      m.emplace_back(prefix + "mean_lat", s.mean_latency);
      m.emplace_back(prefix + "p95_lat", s.p95_latency);
    }
    m.emplace_back("faults", static_cast<double>(inj.injected()));
    return {std::move(m)};
  };
  return g;
}

class ParallelDeterminism : public ::testing::Test {};

TEST(ParallelDeterminism, MulticoreGridIsThreadCountInvariant) {
  EXPECT_TRUE(thread_count_invariant(multicore_grid()));
}

TEST(ParallelDeterminism, CpnGridIsThreadCountInvariant) {
  EXPECT_TRUE(thread_count_invariant(cpn_grid()));
}

TEST(ParallelDeterminism, MulticoreEngineDrivenMatchesLockStep) {
  // The engine-driven E1 (Manager::bind + workload events + a co-scheduled
  // monitor agent) must reproduce the legacy synchronous loop bit for bit.
  const auto legacy = exp::Runner(1).run("determinism", multicore_grid());
  const auto engine =
      exp::Runner(1).run("determinism", multicore_engine_grid());
  ASSERT_EQ(legacy.errors(), 0u);
  ASSERT_EQ(engine.errors(), 0u);
  EXPECT_TRUE(byte_identical(exp::to_json(legacy).dump(),
                             exp::to_json(engine).dump(),
                             "legacy vs engine-driven E1"));
}

TEST(ParallelDeterminism, CpnEngineDrivenMatchesLockStep) {
  // The engine-driven E4 (TrafficGenerator::bind + PacketNetwork::bind)
  // must reproduce the legacy gen.tick()/net.step() loop bit for bit.
  const auto legacy = exp::Runner(1).run("determinism", cpn_grid());
  const auto engine = exp::Runner(1).run("determinism", cpn_engine_grid());
  ASSERT_EQ(legacy.errors(), 0u);
  ASSERT_EQ(engine.errors(), 0u);
  EXPECT_TRUE(byte_identical(exp::to_json(legacy).dump(),
                             exp::to_json(engine).dump(),
                             "legacy vs engine-driven E4"));
}

TEST(ParallelDeterminism, EngineDrivenGridIsThreadCountInvariant) {
  // The event-driven path must stay deterministic under the parallel
  // runner too (each task owns its engine; nothing is shared).
  EXPECT_TRUE(thread_count_invariant(cpn_engine_grid()));
}

TEST(ParallelDeterminism, FaultedGridIsThreadCountInvariant) {
  // The E13 contract: fault schedules come from the plan's own seeded
  // streams, so the faulted trajectory (and every derived metric) is
  // byte-identical between --jobs 1 and --jobs 4+.
  const auto grid = cpn_faulted_grid(
      "link-loss:rate=0.02,dur=60,start=300,end=600;"
      "link-reorder:rate=0.01,dur=30,mag=4,start=300,end=600");
  const auto serial = exp::Runner(1).run("determinism", grid);
  ASSERT_EQ(serial.errors(), 0u);
  // The plan must actually have fired, or this test proves nothing.
  ASSERT_GT(serial.sum(0, "faults") + serial.sum(1, "faults"), 0.0);
  EXPECT_TRUE(thread_count_invariant(grid));
}

TEST(ParallelDeterminism, EmptyFaultPlanDoesNotPerturbTheTrajectory) {
  // Binding an injector with an empty plan must be a guaranteed no-op:
  // the metrics match the plain engine-driven grid byte for byte (the
  // injector draws from its own streams only, and an empty plan draws
  // nothing).
  const auto bare = exp::Runner(1).run("determinism", cpn_engine_grid());
  auto faulted = exp::Runner(1).run("determinism", cpn_faulted_grid(""));
  ASSERT_EQ(bare.errors(), 0u);
  ASSERT_EQ(faulted.errors(), 0u);
  // Strip the grid-name and the extra "faults" metric (always 0 here),
  // then the per-window metrics must agree exactly.
  for (std::size_t v = 0; v < bare.variants.size(); ++v) {
    for (const char* window : {"before.", "during.", "after."}) {
      for (const char* metric : {"delivery", "mean_lat", "p95_lat"}) {
        const std::string key = std::string(window) + metric;
        EXPECT_EQ(bare.mean(v, key), faulted.mean(v, key))
            << "variant " << v << " " << key;
      }
    }
  }
  EXPECT_EQ(faulted.sum(0, "faults"), 0.0);
  EXPECT_EQ(faulted.sum(1, "faults"), 0.0);
}

TEST(ParallelDeterminism, RepeatedParallelRunsAgree) {
  // Not just serial == parallel: two parallel runs with different pool
  // sizes must agree with each other too.
  const auto grid = multicore_grid();
  const auto a = exp::Runner(2).run("determinism", grid);
  const auto b = exp::Runner(parallel_jobs() + 1).run("determinism", grid);
  EXPECT_TRUE(byte_identical(exp::to_json(a).dump(), exp::to_json(b).dump(),
                             "2-worker vs wide-pool grid results"));
}

}  // namespace

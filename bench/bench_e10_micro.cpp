// E10 — framework primitives are cheap enough for resource-constrained
// systems (paper Section III: cognitive radio, CPN, "small, resource
// constrained systems").
//
// The repo's one micro-benchmark: ns/op and heap allocations/op of every
// hot-path primitive, from event dispatch and the knowledge store to a
// full agent ODA step and each substrate's inner step. Each kernel is one
// grid variant; the grid's "seeds" are repeat indices. The table reports
// the best ns/op over repeats, which damps scheduler noise, and the worst
// allocs/op, so one allocating repeat cannot hide behind a clean one.
// Timing metrics are wall-clock derived and therefore not bitwise
// deterministic — use --jobs 1 when comparing numbers across machines.
#include <chrono>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cloud/cluster.hpp"
#include "core/agent.hpp"
#include "core/collective.hpp"
#include "cpn/network.hpp"
#include "exp/harness.hpp"
#include "learn/bandit.hpp"
#include "learn/forecast.hpp"
#include "multicore/platform.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"
#include "support/alloc_counter.hpp"
#include "svc/network.hpp"

namespace {

using namespace sa;

/// Keeps `v` observable so the optimiser cannot delete the benchmark body
/// (the same contract as benchmark::DoNotOptimize).
template <class T>
inline void keep(T&& v) {
  asm volatile("" : : "g"(v) : "memory");
}

/// Times `op(i)` over `iters` iterations after a 1/16 warm-up (`i` counts
/// every call). Reports ns/op and this thread's heap allocations per op
/// over the timed loop, so concurrent kernels stay apart under --jobs N.
template <class F>
exp::TaskOutput time_op(std::size_t iters, F&& op) {
  std::size_t i = 0;
  while (i < iters / 16 + 1) op(i++);
  const std::uint64_t allocs_before = test::support::thread_allocs();
  const auto start = std::chrono::steady_clock::now();
  for (const std::size_t end = i + iters; i < end;) op(i++);
  const auto stop = std::chrono::steady_clock::now();
  const auto allocs = test::support::thread_allocs() - allocs_before;
  const auto n = static_cast<double>(iters);
  return {{{"ns_per_op",
            std::chrono::duration<double, std::nano>(stop - start).count() / n},
           {"allocs_per_op", static_cast<double>(allocs) / n},
           {"iters", n}}};
}

/// One schedule + dispatch per op over a steady heap of `pending`
/// one-shots: each op pushes at the back of the window and pops the
/// earliest, so the sift depth stays at log2(pending).
exp::TaskOutput engine_dispatch(std::size_t pending, std::size_t n) {
  sim::Engine eng;
  for (std::size_t i = 1; i <= pending; ++i) {
    eng.at(static_cast<double>(i), [] {});
  }
  return time_op(n, [&](std::size_t i) {
    eng.at(static_cast<double>(i + 1 + pending), [] {});
    keep(eng.step());
  });
}

exp::TaskOutput bandit_select_update(std::size_t arms, std::size_t n) {
  learn::Ucb1 bandit(arms);
  sim::Rng rng(1);
  return time_op(n, [&](std::size_t) {
    const auto arm = bandit.select(rng);
    bandit.update(arm, 0.5);
  });
}

exp::TaskOutput gossip_round(std::size_t nodes, std::size_t n) {
  core::GossipAggregator agg(nodes);
  agg.reset(std::vector<double>(nodes, 1.0));
  sim::Rng rng(2);
  return time_op(n, [&](std::size_t) { keep(agg.round(rng)); });
}

/// A complete agent (`sensors` sensors, 2 actions, one objective, UCB1)
/// stepped and rewarded once per op. A traced run clears its tracer now
/// and then, as a real run exports per cell: it measures recording, not
/// growth. An untraced run hands the agent no bus and no tracer.
exp::TaskOutput agent_step(std::size_t sensors, bool traced, std::size_t n) {
  sim::TelemetryBus bus;
  sim::Tracer tracer(bus);
  core::AgentConfig cfg;
  if (traced) {
    cfg.tracer = &tracer;
    cfg.telemetry = &bus;
  }
  core::SelfAwareAgent agent("bench", cfg);
  for (std::size_t s = 0; s < sensors; ++s) {
    agent.add_sensor("s" + std::to_string(s),
                     [s] { return static_cast<double>(s); });
  }
  agent.add_action("a", [] {});
  agent.add_action("b", [] {});
  agent.goals().add_objective({"s0", core::utility::rising(0.0, 10.0), 1.0});
  agent.set_goal_metrics({"s0"});
  agent.set_policy(std::make_unique<core::BanditPolicy>(
      std::make_unique<learn::Ucb1>(2)));
  return time_op(n, [&](std::size_t i) {
    agent.step(static_cast<double>(i));
    agent.reward(0.5);
    if (tracer.events().size() > (1u << 16)) tracer.clear();
  });
}

/// Signals "a".."d" read as 1..4: the observation the awareness-process
/// rows feed every op. Built in place (the observation points at the
/// table).
struct FourSignals {
  core::SignalTable table;
  core::Observation obs;
  FourSignals() {
    for (const char* name : {"a", "b", "c", "d"}) table.add(name);
    obs = core::Observation(table);
    for (std::size_t slot = 0; slot < 4; ++slot) {
      obs.set(slot, static_cast<double>(slot + 1));
    }
  }
};

/// 64 cameras on an 8x8 lattice over the unit square, dense enough that
/// fields of view overlap and auctions actually fire.
svc::Network big_fleet() {
  std::vector<svc::CameraSpec> specs(64);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].pos = {0.0625 + static_cast<double>(i % 8) * 0.125,
                    0.0625 + static_cast<double>(i / 8) * 0.125};
    specs[i].radius = 0.16;
    specs[i].capacity = 8;
  }
  svc::NetworkParams p;
  p.objects = 256;
  p.seed = 17;
  return svc::Network(std::move(specs), p);
}

struct Kernel {
  std::string name;
  std::size_t iters;
  exp::TaskOutput (*run)(std::size_t iters);
};

const std::vector<Kernel> kKernels = {
    {"engine_oneshot_dispatch", 1 << 18,
     [](std::size_t n) { return engine_dispatch(0, n); }},
    {"engine_periodic_fire", 1 << 18,
     [](std::size_t n) {
       sim::Engine eng;
       eng.every(1.0, [] { return true; });
       return time_op(n, [&](std::size_t) { keep(eng.step()); });
     }},
    {"engine_heap@1k", 1 << 17,
     [](std::size_t n) { return engine_dispatch(1024, n); }},
    {"kb_put_number", 1 << 18,
     [](std::size_t n) {
       core::KnowledgeBase kb(16);
       return time_op(n, [&](std::size_t i) {
         const auto t = static_cast<double>(i + 1);
         kb.put_number("sensor.load", t, t);
       });
     }},
    {"kb_number_read", 1 << 18,
     [](std::size_t n) {
       core::KnowledgeBase kb(16);
       for (int i = 0; i < 64; ++i) {
         kb.put_number("m" + std::to_string(i), i, 0.0);
       }
       return time_op(n, [&](std::size_t i) {
         keep(kb.number(i & 1 ? "m17" : "m42"));
       });
     }},
    {"kb_fresh_check", 1 << 18,
     [](std::size_t n) {
       core::KnowledgeBase kb(16);
       kb.put_number("heartbeat", 1.0, 0.0, 1.0);
       return time_op(n, [&](std::size_t i) {
         keep(kb.fresh("heartbeat", static_cast<double>(i) * 1e-6));
       });
     }},
    {"stimulus_update", 1 << 16,
     [](std::size_t n) {
       FourSignals sig;
       core::KnowledgeBase kb;
       core::StimulusAwareness sa_(kb);
       return time_op(n, [&](std::size_t i) {
         sa_.update(static_cast<double>(i), sig.obs);
       });
     }},
    {"time_update", 1 << 16,
     [](std::size_t n) {
       FourSignals sig;
       core::KnowledgeBase kb;
       core::TimeAwareness ta(kb);
       return time_op(n, [&](std::size_t i) {
         ta.update(static_cast<double>(i), sig.obs);
       });
     }},
    {"forecaster_observe", 1 << 18,
     [](std::size_t n) {
       learn::HoltForecaster f;
       return time_op(n, [&](std::size_t i) {
         f.observe(static_cast<double>(i) * 0.1);
         keep(f.forecast());
       });
     }},
    {"bandit_select_update@4", 1 << 17,
     [](std::size_t n) { return bandit_select_update(4, n); }},
    {"bandit_select_update@16", 1 << 16,
     [](std::size_t n) { return bandit_select_update(16, n); }},
    {"bandit_select_update@64", 1 << 15,
     [](std::size_t n) { return bandit_select_update(64, n); }},
    {"gossip_round@64", 1 << 13,
     [](std::size_t n) { return gossip_round(64, n); }},
    {"gossip_round@256", 1 << 11,
     [](std::size_t n) { return gossip_round(256, n); }},
    {"explanation_record", 1 << 16,
     [](std::size_t n) {
       core::Explainer ex;
       core::Explanation e;
       e.agent = "bench";
       e.decision.action = "act";
       e.decision.considered = {{"act", 0.5}, {"other", 0.3}};
       e.evidence = {{"k", 1.0, 0.9}};
       return time_op(n, [&](std::size_t) { ex.record(e); });
     }},
    {"span_open_close", 1 << 17,
     [](std::size_t n) {
       sim::TelemetryBus bus;
       sim::Tracer tracer(bus);
       const auto subject = bus.intern_subject("bench");
       const auto name = tracer.intern_name("op");
       return time_op(n, [&](std::size_t i) {
         auto s = tracer.span(static_cast<double>(i), subject, name);
       });
     }},
    {"flow_point", 1 << 17,
     [](std::size_t n) {
       sim::TelemetryBus bus;
       sim::Tracer tracer(bus);
       const auto subject = bus.intern_subject("bench");
       const auto name = tracer.intern_name("op");
       auto outer = tracer.span(0.0, subject, name);
       return time_op(n, [&](std::size_t i) {
         tracer.flow(static_cast<double>(i), sim::FlowPhase::Step, 1, subject,
                     name);
       });
     }},
    {"metrics_counter_add", 1 << 18,
     [](std::size_t n) {
       sim::MetricsRegistry reg;
       const auto c = reg.counter("bench.ops");
       return time_op(n, [&](std::size_t) { reg.add(c); });
     }},
    {"metrics_timer_observe", 1 << 18,
     [](std::size_t n) {
       sim::MetricsRegistry reg;
       const auto m = reg.timer("bench.ms");
       return time_op(n, [&](std::size_t i) {
         reg.observe(m, static_cast<double>(i) * 0.001);
       });
     }},
    {"metrics_snapshot@16", 1 << 14,
     [](std::size_t n) {
       sim::MetricsRegistry reg;
       for (int i = 0; i < 16; ++i) reg.gauge("g" + std::to_string(i));
       return time_op(n, [&](std::size_t i) {
         reg.snapshot(static_cast<double>(i));
         if (reg.snapshots().size() > 1024) reg.clear_snapshots();
       });
     }},
    {"agent_step_plain", 1 << 13,
     [](std::size_t n) { return agent_step(4, false, n); }},
    // As many ops as agent_step_plain: the explainer's log grows on the
    // same schedule, so equal allocs/op means the step's allocations do
    // not depend on the sensor count.
    {"agent_step@16", 1 << 13,
     [](std::size_t n) { return agent_step(16, false, n); }},
    {"agent_step_traced", 1 << 13,
     [](std::size_t n) { return agent_step(4, true, n); }},
    {"platform_step@6core", 1 << 14,
     [](std::size_t n) {
       multicore::Platform plat(multicore::PlatformConfig::big_little(2, 4), 3);
       plat.set_workload(30.0, 0.2, 0.5);
       return time_op(n, [&](std::size_t) { plat.step(); });
     }},
    {"platform_step@32core", 1 << 13,
     [](std::size_t n) {
       multicore::Platform plat(multicore::PlatformConfig::big_little(16, 16),
                                7);
       // ~90% utilisation: queues actually form, so placement's backlog
       // scans and the ring buffers are exercised, not just the arrivals.
       plat.set_workload(2000.0, 0.02, 1.0);
       return time_op(n, [&](std::size_t) { plat.step(); });
     }},
    {"cpn_step@4x6", 1 << 13,
     [](std::size_t n) {
       cpn::PacketNetwork net(cpn::Topology::grid(4, 6, 4, 4), {});
       sim::Rng rng(4);
       return time_op(n, [&](std::size_t) {
         net.inject(rng.below(24), rng.below(24), true);
         net.step();
       });
     }},
    {"cpn_step@16x16", 1 << 12,
     [](std::size_t n) {
       cpn::PacketNetwork::Params p;
       p.seed = 41;
       cpn::PacketNetwork net(
           cpn::Topology::grid(16, 16, /*shortcuts=*/12, /*seed=*/5), p);
       return time_op(n, [&](std::size_t i) {
         net.inject((i * 7) % 256, (i * 13 + 97) % 256, /*legit=*/true);
         net.inject((i * 11 + 31) % 256, (i * 5 + 201) % 256, /*legit=*/true);
         net.step();
       });
     }},
    {"fleet_step@clustered", 1 << 10,
     [](std::size_t n) {
       svc::NetworkParams p;
       p.seed = 5;
       auto net = svc::Network::clustered_layout(p);
       return time_op(n, [&](std::size_t) { net.step(); });
     }},
    {"fleet_step@64cam_256obj", 1 << 12,
     [](std::size_t n) {
       auto net = big_fleet();
       return time_op(n, [&](std::size_t) { net.step(); });
     }},
    {"cloud_epoch@512node", 1 << 10,
     [](std::size_t n) {
       cloud::Cluster::Params p;
       p.nodes = 512;
       p.seed = 23;
       cloud::Cluster cluster(p);
       std::vector<std::size_t> order(p.nodes);
       std::iota(order.begin(), order.end(), std::size_t{0});
       cluster.enrol(order, p.nodes);
       return time_op(n, [&](std::size_t) {
         keep(cluster.run_epoch(4000.0).served);
       });
     }},
};

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h("e10_micro", argc, argv);
  std::cout << "E10: ns/op (best of 3 repeats) and heap allocations/op "
               "(worst of 3) of the framework's hot-path primitives.\n\n";

  exp::Grid g;
  g.name = "e10";
  for (const auto& k : kKernels) g.variants.push_back(k.name);
  g.seeds = {1, 2, 3};  // repeat indices, not simulation seeds
  g.task = [](const exp::TaskContext& ctx) {
    const auto& k = kKernels[ctx.variant];
    return k.run(k.iters);
  };
  const auto res = h.run(std::move(g));

  sim::Table t("E10.1  primitive cost",
               {"kernel", "ns/op", "allocs/op", "iters"});
  t.precision(1, 1);
  t.precision(2, 3);
  std::size_t plain = 0, traced = 0;
  for (std::size_t v = 0; v < res.variants.size(); ++v) {
    t.add_row({res.variants[v], res.stats(v, "ns_per_op").min(),
               res.stats(v, "allocs_per_op").max(),
               static_cast<std::int64_t>(kKernels[v].iters)});
    if (res.variants[v] == "agent_step_plain") plain = v;
    if (res.variants[v] == "agent_step_traced") traced = v;
  }
  t.print(std::cout);

  const double base = res.stats(plain, "ns_per_op").min();
  const double on = res.stats(traced, "ns_per_op").min();
  std::cout << "E10.2  ODA step overhead: traced " << (on / base - 1.0) * 100.0
            << "% vs plain (no bus, no tracer).\n";
  return h.finish();
}

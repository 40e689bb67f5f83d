// Telemetry/tracing overhead micro-benchmark (ISSUE PR3; supports the
// observability cost contract stated in docs/architecture.md).
//
// Measures ns/op of the observability hot paths in isolation (span
// open/close, flow point, metric add/observe, registry snapshot) and —
// the headline — a full agent ODA step with tracing off vs on, which
// bounds the end-to-end cost of decision-provenance tracing. The
// disabled-path kernels demonstrate the "one branch, zero allocations"
// contract.
//
// Grid "seeds" are repeat indices (best-of over repeats damps scheduler
// noise); timing metrics are wall-clock derived and not bitwise
// deterministic. `--json BENCH_telemetry.json` publishes the numbers.
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.hpp"
#include "exp/harness.hpp"
#include "learn/bandit.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"

namespace {

using namespace sa;

/// Keeps `v` observable so the optimiser cannot delete the benchmark body.
template <class T>
inline void keep(T&& v) {
  asm volatile("" : : "g"(v) : "memory");
}

/// Times `op()` over `iters` iterations after a 1/16 warm-up and returns
/// nanoseconds per op.
template <class F>
double time_ns(std::size_t iters, F&& op) {
  for (std::size_t i = 0; i < iters / 16 + 1; ++i) op();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) op();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(iters);
}

/// A small but complete agent (4 sensors, 2 actions, one objective), the
/// same shape as e10's agent_step@4 kernel so numbers are comparable.
std::unique_ptr<core::SelfAwareAgent> make_agent(core::AgentConfig cfg) {
  auto agent = std::make_unique<core::SelfAwareAgent>("bench", cfg);
  for (std::size_t s = 0; s < 4; ++s) {
    agent->add_sensor("s" + std::to_string(s),
                      [s] { return static_cast<double>(s); });
  }
  agent->add_action("a", [] {});
  agent->add_action("b", [] {});
  agent->goals().add_objective({"s0", core::utility::rising(0.0, 10.0), 1.0});
  agent->set_goal_metrics({"s0"});
  agent->set_policy(std::make_unique<core::BanditPolicy>(
      std::make_unique<learn::Ucb1>(2)));
  return agent;
}

struct Kernel {
  std::string name;
  std::size_t iters;
  double (*run)(std::size_t iters);
};

const std::vector<Kernel> kKernels = {
    {"span_open_close", 1 << 17,
     [](std::size_t n) {
       sim::TelemetryBus bus;
       sim::Tracer tracer(bus);
       const auto subject = bus.intern_subject("bench");
       const auto name = tracer.intern_name("op");
       double t = 0.0;
       return time_ns(n, [&] {
         { auto s = tracer.span(t, subject, name); }
         t += 1.0;
       });
     }},
    {"span_disabled", 1 << 18,
     [](std::size_t n) {
       sim::TelemetryBus bus;
       sim::Tracer tracer(bus, /*enabled=*/false);
       const auto subject = bus.intern_subject("bench");
       const auto name = tracer.intern_name("op");
       double t = 0.0;
       return time_ns(n, [&] {
         { auto s = tracer.span(t, subject, name); }
         t += 1.0;
       });
     }},
    {"flow_point", 1 << 17,
     [](std::size_t n) {
       sim::TelemetryBus bus;
       sim::Tracer tracer(bus);
       const auto subject = bus.intern_subject("bench");
       const auto name = tracer.intern_name("op");
       auto outer = tracer.span(0.0, subject, name);
       double t = 0.0;
       return time_ns(n, [&] {
         tracer.flow(t, sim::FlowPhase::Step, 1, subject, name);
         t += 1.0;
       });
     }},
    {"metrics_counter_add", 1 << 18,
     [](std::size_t n) {
       sim::MetricsRegistry reg;
       const auto c = reg.counter("bench.ops");
       return time_ns(n, [&] { reg.add(c); });
     }},
    {"metrics_timer_observe", 1 << 18,
     [](std::size_t n) {
       sim::MetricsRegistry reg;
       const auto m = reg.timer("bench.ms");
       double v = 0.0;
       return time_ns(n, [&] {
         reg.observe(m, v);
         v += 0.001;
       });
     }},
    {"metrics_snapshot@16", 1 << 14,
     [](std::size_t n) {
       sim::MetricsRegistry reg;
       for (int i = 0; i < 16; ++i) {
         reg.gauge("g" + std::to_string(i));
       }
       double t = 0.0;
       const double ns = time_ns(n, [&] {
         reg.snapshot(t);
         t += 1.0;
         if (reg.snapshots().size() > 1024) reg.clear_snapshots();
       });
       return ns;
     }},
    {"agent_step_plain", 1 << 13,
     [](std::size_t n) {
       auto agent = make_agent({});
       double t = 0.0;
       return time_ns(n, [&] {
         agent->step(t);
         agent->reward(0.5);
         t += 1.0;
       });
     }},
    {"agent_step_traced", 1 << 13,
     [](std::size_t n) {
       sim::TelemetryBus bus;
       sim::Tracer tracer(bus);
       core::AgentConfig cfg;
       cfg.telemetry = &bus;
       cfg.tracer = &tracer;
       auto agent = make_agent(cfg);
       double t = 0.0;
       return time_ns(n, [&] {
         agent->step(t);
         agent->reward(0.5);
         t += 1.0;
         // Bound memory: a real run exports and clears per cell; here we
         // reset periodically so the kernel measures recording, not growth.
         if (tracer.events().size() > (1u << 16)) tracer.clear();
       });
     }},
    {"agent_step_tracer_off", 1 << 13,
     [](std::size_t n) {
       sim::TelemetryBus bus;
       sim::Tracer tracer(bus, /*enabled=*/false);
       core::AgentConfig cfg;
       cfg.tracer = &tracer;
       auto agent = make_agent(cfg);
       double t = 0.0;
       return time_ns(n, [&] {
         agent->step(t);
         agent->reward(0.5);
         t += 1.0;
       });
     }},
};

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h("telemetry", argc, argv);
  std::cout << "Telemetry overhead: ns/op of tracing/metrics hot paths and "
               "the traced vs plain ODA step (best of 3 repeats).\n\n";

  exp::Grid g;
  g.name = "telemetry";
  for (const auto& k : kKernels) g.variants.push_back(k.name);
  g.seeds = {1, 2, 3};  // repeat indices, not simulation seeds
  g.task = [](const exp::TaskContext& ctx) -> exp::TaskOutput {
    const auto& k = kKernels[ctx.variant];
    return {{{"ns_per_op", k.run(k.iters)},
             {"iters", static_cast<double>(k.iters)}}};
  };
  const auto res = h.run(std::move(g));

  sim::Table t("T1  observability primitive cost", {"kernel", "ns/op"});
  t.precision(1, 1);
  std::size_t plain = 0, traced = 0, off = 0;
  for (std::size_t v = 0; v < res.variants.size(); ++v) {
    t.add_row({res.variants[v], res.stats(v, "ns_per_op").min()});
    if (res.variants[v] == "agent_step_plain") plain = v;
    if (res.variants[v] == "agent_step_traced") traced = v;
    if (res.variants[v] == "agent_step_tracer_off") off = v;
  }
  t.print(std::cout);

  const double base = res.stats(plain, "ns_per_op").min();
  const double on = res.stats(traced, "ns_per_op").min();
  const double dis = res.stats(off, "ns_per_op").min();
  std::cout << "T2  ODA step overhead: traced " << (on / base - 1.0) * 100.0
            << "%, disabled tracer " << (dis / base - 1.0) * 100.0
            << "% vs plain (values within a few percent of zero are "
               "measurement noise).\n";
  return h.finish();
}

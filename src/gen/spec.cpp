#include "gen/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace sa::gen {

namespace {

double parse_number(std::string_view text, std::string_view what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(std::string(text), &used);
    if (used != text.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("scenario: bad number '" + std::string(text) +
                                "' for " + std::string(what));
  }
}

std::size_t parse_count(std::string_view text, std::string_view what) {
  std::size_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument("scenario: bad count '" + std::string(text) +
                                "' for " + std::string(what));
  }
  return v;
}

/// Seeds are full-range 64-bit: routing them through a double would
/// silently round above 2^53 and break seed round-tripping.
std::uint64_t parse_seed(std::string_view text) {
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument("scenario: bad number '" + std::string(text) +
                                "' for seed");
  }
  return v;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (!s.empty()) {
    const std::size_t pos = s.find(sep);
    out.push_back(s.substr(0, pos));
    if (pos == std::string_view::npos) break;
    s.remove_prefix(pos + 1);
  }
  return out;
}

std::string format(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

[[noreturn]] void bad_key(std::string_view section, std::string_view key) {
  throw std::invalid_argument("scenario: unknown key '" + std::string(key) +
                              "' in section '" + std::string(section) + "'");
}

/// Applies "key=value,..." pairs to `section` via `apply(key, value)`;
/// `apply` throws bad_key for keys it does not know.
template <typename Apply>
void parse_kvs(std::string_view body, Apply&& apply) {
  for (std::string_view kv : split(body, ',')) {
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("scenario: expected key=value, got '" +
                                  std::string(kv) + "'");
    }
    apply(kv.substr(0, eq), kv.substr(eq + 1));
  }
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("scenario: ") + what);
}

/// Appends ",key=value" for every non-default field `emit` reports.
class SectionWriter {
 public:
  SectionWriter(std::string& out, std::string_view name) : out_(out) {
    if (!out_.empty()) out_ += ';';
    out_ += name;
  }
  void key(std::string_view k, std::string_view v) {
    out_ += first_ ? ':' : ',';
    first_ = false;
    out_ += k;
    out_ += '=';
    out_ += v;
  }
  void num(std::string_view k, double v, double dflt) {
    if (v != dflt) key(k, format(v));
  }
  void count(std::string_view k, std::size_t v, std::size_t dflt) {
    if (v != dflt) key(k, std::to_string(v));
  }

 private:
  std::string& out_;
  bool first_ = true;
};

}  // namespace

ScenarioSpec ScenarioSpec::parse(std::string_view spec) {
  ScenarioSpec out;
  for (std::string_view item : split(spec, ';')) {
    if (item.empty()) continue;
    if (item.rfind("seed=", 0) == 0) {
      out.seed = parse_seed(item.substr(5));
      continue;
    }
    const std::size_t colon = item.find(':');
    const std::string_view name = item.substr(0, colon);
    const std::string_view body =
        colon == std::string_view::npos ? std::string_view{}
                                        : item.substr(colon + 1);
    if (name == "world") {
      parse_kvs(body, [&](std::string_view k, std::string_view v) {
        if (k == "horizon") {
          out.world.horizon = parse_number(v, k);
        } else if (k == "exchange") {
          out.world.exchange_s = parse_number(v, k);
        } else if (k == "step") {
          out.world.step_s = parse_number(v, k);
        } else {
          bad_key(name, k);
        }
      });
    } else if (name == "multicore") {
      out.multicore.enabled = true;
      parse_kvs(body, [&](std::string_view k, std::string_view v) {
        if (k == "nodes") {
          out.multicore.nodes = parse_count(v, k);
        } else if (k == "big") {
          out.multicore.big = parse_count(v, k);
        } else if (k == "little") {
          out.multicore.little = parse_count(v, k);
        } else if (k == "epoch") {
          out.multicore.epoch_s = parse_number(v, k);
        } else if (k == "rate") {
          out.multicore.rate = parse_number(v, k);
        } else if (k == "work") {
          out.multicore.work = parse_number(v, k);
        } else if (k == "deadline") {
          out.multicore.deadline = parse_number(v, k);
        } else if (k == "jitter") {
          out.multicore.jitter = parse_number(v, k);
        } else {
          bad_key(name, k);
        }
      });
    } else if (name == "cameras") {
      out.cameras.enabled = true;
      parse_kvs(body, [&](std::string_view k, std::string_view v) {
        if (k == "count") {
          out.cameras.count = parse_count(v, k);
        } else if (k == "objects") {
          out.cameras.objects = parse_count(v, k);
        } else if (k == "clusters") {
          out.cameras.clusters = parse_count(v, k);
        } else if (k == "districts") {
          out.cameras.districts = parse_count(v, k);
        } else if (k == "epoch") {
          out.cameras.epoch_steps = parse_count(v, k);
        } else if (k == "speed") {
          out.cameras.speed = parse_number(v, k);
        } else {
          bad_key(name, k);
        }
      });
    } else if (name == "cloud") {
      out.cloud.enabled = true;
      parse_kvs(body, [&](std::string_view k, std::string_view v) {
        if (k == "nodes") {
          out.cloud.nodes = parse_count(v, k);
        } else if (k == "epoch") {
          out.cloud.epoch_s = parse_number(v, k);
        } else if (k == "demand") {
          out.cloud.demand = parse_number(v, k);
        } else if (k == "amp") {
          out.cloud.amp = parse_number(v, k);
        } else {
          bad_key(name, k);
        }
      });
    } else if (name == "cpn") {
      out.cpn.enabled = true;
      parse_kvs(body, [&](std::string_view k, std::string_view v) {
        if (k == "rows") {
          out.cpn.rows = parse_count(v, k);
        } else if (k == "cols") {
          out.cpn.cols = parse_count(v, k);
        } else if (k == "shortcuts") {
          out.cpn.shortcuts = parse_count(v, k);
        } else if (k == "flows") {
          out.cpn.flows = parse_count(v, k);
        } else if (k == "grids") {
          out.cpn.grids = parse_count(v, k);
        } else if (k == "rate") {
          out.cpn.rate = parse_number(v, k);
        } else {
          bad_key(name, k);
        }
      });
    } else if (name == "faults") {
      out.faults.enabled = true;
      parse_kvs(body, [&](std::string_view k, std::string_view v) {
        if (k == "pressure") {
          out.faults.pressure = parse_number(v, k);
        } else if (k == "dur") {
          out.faults.dur = parse_number(v, k);
        } else if (k == "start") {
          out.faults.start = parse_number(v, k);
        } else if (k == "end") {
          out.faults.end = parse_number(v, k);
        } else {
          bad_key(name, k);
        }
      });
    } else {
      throw std::invalid_argument("scenario: unknown section '" +
                                  std::string(name) + "'");
    }
  }

  require(out.world.horizon > 0.0, "world horizon must be > 0");
  require(out.world.exchange_s >= 0.0, "world exchange must be >= 0");
  require(out.world.step_s > 0.0, "world step must be > 0");
  if (out.multicore.enabled) {
    require(out.multicore.nodes >= 1, "multicore nodes must be >= 1");
    require(out.multicore.big + out.multicore.little >= 1,
            "multicore needs at least one core");
    require(out.multicore.epoch_s > 0.0, "multicore epoch must be > 0");
    require(out.multicore.rate > 0.0, "multicore rate must be > 0");
    require(out.multicore.work > 0.0, "multicore work must be > 0");
    require(out.multicore.deadline > 0.0, "multicore deadline must be > 0");
    require(out.multicore.jitter >= 0.0 && out.multicore.jitter < 1.0,
            "multicore jitter must be in [0, 1)");
  }
  if (out.cameras.enabled) {
    require(out.cameras.count >= 1, "cameras count must be >= 1");
    require(out.cameras.objects >= 1, "cameras objects must be >= 1");
    require(out.cameras.districts >= 1, "cameras districts must be >= 1");
    require(out.cameras.epoch_steps >= 1, "cameras epoch must be >= 1");
    require(out.cameras.speed > 0.0, "cameras speed must be > 0");
  }
  if (out.cloud.enabled) {
    require(out.cloud.nodes >= 1, "cloud nodes must be >= 1");
    require(out.cloud.epoch_s > 0.0, "cloud epoch must be > 0");
    require(out.cloud.demand >= 0.0, "cloud demand must be >= 0");
    require(out.cloud.amp >= 0.0 && out.cloud.amp <= 1.0,
            "cloud amp must be in [0, 1]");
  }
  if (out.cpn.enabled) {
    require(out.cpn.rows >= 1 && out.cpn.cols >= 1 &&
                out.cpn.rows * out.cpn.cols >= 2,
            "cpn grid needs at least 2 nodes");
    require(out.cpn.flows >= 1, "cpn flows must be >= 1");
    require(out.cpn.grids >= 1, "cpn grids must be >= 1");
    require(out.cpn.rate > 0.0, "cpn rate must be > 0");
  }
  if (out.faults.enabled) {
    require(out.faults.pressure >= 0.0, "faults pressure must be >= 0");
    require(out.faults.start >= 0.0, "faults start must be >= 0");
    require(out.faults.end > out.faults.start,
            "faults end must be > start");
  }
  return out;
}

std::string ScenarioSpec::to_string() const {
  const ScenarioSpec dflt;
  std::string out;
  if (seed != 0) out += "seed=" + std::to_string(seed);
  if (world != dflt.world) {
    SectionWriter w(out, "world");
    w.num("horizon", world.horizon, dflt.world.horizon);
    w.num("exchange", world.exchange_s, dflt.world.exchange_s);
    w.num("step", world.step_s, dflt.world.step_s);
  }
  if (multicore.enabled) {
    SectionWriter w(out, "multicore");
    w.count("nodes", multicore.nodes, dflt.multicore.nodes);
    w.count("big", multicore.big, dflt.multicore.big);
    w.count("little", multicore.little, dflt.multicore.little);
    w.num("epoch", multicore.epoch_s, dflt.multicore.epoch_s);
    w.num("rate", multicore.rate, dflt.multicore.rate);
    w.num("work", multicore.work, dflt.multicore.work);
    w.num("deadline", multicore.deadline, dflt.multicore.deadline);
    w.num("jitter", multicore.jitter, dflt.multicore.jitter);
  }
  if (cameras.enabled) {
    SectionWriter w(out, "cameras");
    w.count("count", cameras.count, dflt.cameras.count);
    w.count("objects", cameras.objects, dflt.cameras.objects);
    w.count("clusters", cameras.clusters, dflt.cameras.clusters);
    w.count("districts", cameras.districts, dflt.cameras.districts);
    w.count("epoch", cameras.epoch_steps, dflt.cameras.epoch_steps);
    w.num("speed", cameras.speed, dflt.cameras.speed);
  }
  if (cloud.enabled) {
    SectionWriter w(out, "cloud");
    w.count("nodes", cloud.nodes, dflt.cloud.nodes);
    w.num("epoch", cloud.epoch_s, dflt.cloud.epoch_s);
    w.num("demand", cloud.demand, dflt.cloud.demand);
    w.num("amp", cloud.amp, dflt.cloud.amp);
  }
  if (cpn.enabled) {
    SectionWriter w(out, "cpn");
    w.count("rows", cpn.rows, dflt.cpn.rows);
    w.count("cols", cpn.cols, dflt.cpn.cols);
    w.count("shortcuts", cpn.shortcuts, dflt.cpn.shortcuts);
    w.count("flows", cpn.flows, dflt.cpn.flows);
    w.count("grids", cpn.grids, dflt.cpn.grids);
    w.num("rate", cpn.rate, dflt.cpn.rate);
  }
  if (faults.enabled) {
    SectionWriter w(out, "faults");
    w.num("pressure", faults.pressure, dflt.faults.pressure);
    w.num("dur", faults.dur, dflt.faults.dur);
    w.num("start", faults.start, dflt.faults.start);
    if (std::isfinite(faults.end)) w.key("end", format(faults.end));
  }
  return out;
}

const char* ScenarioSpec::city_spec() {
  return "multicore:nodes=4;cameras:count=16,objects=32,clusters=3;"
         "cloud:nodes=32;cpn:rows=4,cols=6,shortcuts=6;faults";
}

sim::Rng ScenarioSpec::section_stream(std::uint64_t scenario_seed,
                                      std::string_view section) {
  // splitmix64-finalised per-section stream: changing the scenario seed
  // re-rolls every section; two sections never share a stream.
  return sim::Rng(sim::mix64(scenario_seed ^ 0x5CE2'A810'57AE'0001ULL))
      .fork(section);
}

std::vector<svc::CameraSpec> ScenarioSpec::expand_cameras(
    std::uint64_t run_seed, std::size_t district) const {
  std::vector<svc::CameraSpec> specs;
  if (!cameras.enabled) return specs;
  sim::Rng rng = section_stream(scenario_seed(run_seed), "cameras");
  // District 0 consumes the stream exactly as a districts=1 section did;
  // later districts fork by index (fork never advances the parent), so
  // every district's layout is pinned independently of `districts`.
  if (district != 0) rng = rng.fork(district);
  specs.reserve(cameras.count);
  // Dense 4-camera clusters first (the clustered_layout pattern — heavy
  // FoV overlap so Smooth/Passive strategies can pay off), then sparse
  // solo cameras with smaller FoVs until `count` is reached.
  constexpr std::size_t kClusterSize = 4;
  for (std::size_t c = 0; c < clusters_that_fit(); ++c) {
    const svc::Vec2 centre{rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75)};
    const double spread = rng.uniform(0.05, 0.09);
    for (std::size_t i = 0;
         i < kClusterSize && specs.size() < cameras.count; ++i) {
      const double dx = (i % 2 == 0 ? -spread : spread);
      const double dy = (i / 2 == 0 ? -spread : spread);
      specs.push_back({{centre.x + dx, centre.y + dy},
                       rng.uniform(0.20, 0.26),
                       6});
    }
  }
  while (specs.size() < cameras.count) {
    specs.push_back({{rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)},
                     rng.uniform(0.13, 0.18),
                     4});
  }
  return specs;
}

std::size_t ScenarioSpec::clusters_that_fit() const {
  // Never let cluster placement consume more cameras than the count
  // allows; partial final clusters are fine.
  return std::min(cameras.clusters, (cameras.count + 3) / 4);
}

std::vector<EdgeWorkload> ScenarioSpec::expand_workloads(
    std::uint64_t run_seed) const {
  std::vector<EdgeWorkload> out;
  if (!multicore.enabled) return out;
  sim::Rng rng = section_stream(scenario_seed(run_seed), "multicore");
  out.reserve(multicore.nodes);
  const double j = multicore.jitter;
  for (std::size_t n = 0; n < multicore.nodes; ++n) {
    EdgeWorkload w;
    w.rate = multicore.rate * rng.uniform(1.0 - j, 1.0 + j);
    w.work = multicore.work * rng.uniform(1.0 - j, 1.0 + j);
    w.deadline = multicore.deadline * rng.uniform(1.0 - 0.5 * j, 1.0 + j);
    out.push_back(w);
  }
  return out;
}

fault::FaultPlan ScenarioSpec::expand_faults(std::uint64_t run_seed) const {
  fault::FaultPlan plan;
  if (!faults.enabled) return plan;
  sim::Rng rng = section_stream(scenario_seed(run_seed), "faults");
  // The plan seed pins the injector's onset schedules; keep it nonzero so
  // downstream "0 = derive" conventions can't re-key it.
  plan.seed = rng() | 1ULL;

  // One randomized process per fault kind applicable to an enabled
  // substrate. All draws happen unconditionally on `pressure` and the
  // rate scaling comes last, so scaling pressure perturbs rates only —
  // never which draws a process sees. Base rates are per sim-second and
  // sized so pressure=1 yields a handful of events per process over the
  // default 600 s horizon.
  struct Proto {
    bool enabled;
    fault::FaultKind kind;
    double rate;     ///< base onsets/s at pressure 1
    double dur;      ///< duration scale relative to faults.dur
    double mag_lo;   ///< magnitude draw range
    double mag_hi;
  };
  const Proto protos[] = {
      {multicore.enabled, fault::FaultKind::CoreFail, 0.010, 1.0, 1.0, 1.0},
      {multicore.enabled, fault::FaultKind::FreqCap, 0.008, 2.0, 0.4, 0.8},
      {cameras.enabled, fault::FaultKind::NodeCrash, 0.008, 1.0, 1.0, 1.0},
      {cameras.enabled, fault::FaultKind::SensorDropout, 0.012, 1.0, 1.0,
       1.0},
      {cameras.enabled, fault::FaultKind::SensorBlur, 0.012, 2.0, 0.3, 0.7},
      {cloud.enabled, fault::FaultKind::VmPreempt, 0.012, 1.5, 1.0, 1.0},
      {cloud.enabled, fault::FaultKind::LatencySpike, 0.008, 2.0, 1.5, 3.0},
      {cpn.enabled, fault::FaultKind::LinkLoss, 0.012, 1.5, 1.0, 1.0},
      {cpn.enabled, fault::FaultKind::LinkReorder, 0.008, 1.5, 2.0, 6.0},
      {cpn.enabled, fault::FaultKind::Partition, 0.003, 0.5, 1.0, 1.0},
      {world.exchange_s > 0.0, fault::FaultKind::ExchangeDrop, 0.004, 3.0,
       1.0, 1.0},
  };
  for (const Proto& proto : protos) {
    // Draw regardless of enablement so toggling one substrate never
    // reshuffles another's processes.
    const double rate_jit = rng.uniform(0.5, 1.5);
    const double dur_jit = rng.uniform(0.6, 1.4);
    const double mag = rng.uniform(proto.mag_lo, proto.mag_hi);
    const bool bursty = rng.chance(0.25);
    if (!proto.enabled) continue;
    fault::FaultProcess p;
    p.kind = proto.kind;
    p.rate = proto.rate * rate_jit * faults.pressure;
    if (p.rate <= 0.0) continue;  // pressure 0: guaranteed-empty plan
    p.duration_mean = faults.dur < 0.0
                          ? -1.0
                          : faults.dur * proto.dur * dur_jit;
    p.magnitude = mag;
    p.burstiness = bursty ? 2.0 : 1.0;
    p.start = faults.start;
    p.end = faults.end;
    plan.processes.push_back(p);
  }
  return plan;
}

}  // namespace sa::gen

#include "fault/fault.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace sa::fault {

namespace {

struct KindName {
  FaultKind kind;
  const char* name;
};
constexpr KindName kKindNames[kFaultKinds] = {
    {FaultKind::SensorDropout, "sensor-dropout"},
    {FaultKind::SensorBlur, "sensor-blur"},
    {FaultKind::NodeCrash, "node-crash"},
    {FaultKind::CoreFail, "core-fail"},
    {FaultKind::FreqCap, "freq-cap"},
    {FaultKind::VmPreempt, "vm-preempt"},
    {FaultKind::LatencySpike, "latency-spike"},
    {FaultKind::LinkLoss, "link-loss"},
    {FaultKind::Partition, "partition"},
    {FaultKind::LinkReorder, "link-reorder"},
    {FaultKind::ExchangeDrop, "exchange-drop"},
};

double parse_number(std::string_view text, std::string_view what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(std::string(text), &used);
    if (used != text.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("fault plan: bad number '" +
                                std::string(text) + "' for " +
                                std::string(what));
  }
}

/// Seeds are full-range 64-bit: routing them through a double would
/// silently round above 2^53 and break seed round-tripping.
std::uint64_t parse_seed(std::string_view text) {
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument("fault plan: bad number '" +
                                std::string(text) + "' for seed");
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

/// Trims the formatted double the way the canonical spec wants ("0.05",
/// not "0.050000"); plans are config strings, not data files.
std::string format(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// Checkpoint payload of a pending fault-restore event: the Record fields
// its tag does not name, packed little-endian (t, unit, magnitude, until =
// 32 bytes), so the attestation covers which unit heals and by how much.
void pack64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(b, 8);
}

std::uint64_t dbits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

std::string encode_end_payload(double onset_t, std::size_t unit,
                               double magnitude, double until) {
  std::string out;
  out.reserve(32);
  pack64(out, dbits(onset_t));
  pack64(out, static_cast<std::uint64_t>(unit));
  pack64(out, dbits(magnitude));
  pack64(out, dbits(until));
  return out;
}

}  // namespace

const char* kind_name(FaultKind k) noexcept {
  for (const auto& kn : kKindNames) {
    if (kn.kind == k) return kn.name;
  }
  return "?";
}

FaultKind kind_from(std::string_view name) {
  for (const auto& kn : kKindNames) {
    if (name == kn.name) return kn.kind;
  }
  throw std::invalid_argument("fault plan: unknown fault kind '" +
                              std::string(name) + "'");
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  for (std::string_view item : split(spec, ';')) {
    if (item.empty()) continue;
    // "seed=N" stands alone; everything else is "kind:key=value,...".
    if (item.rfind("seed=", 0) == 0) {
      plan.seed = parse_seed(item.substr(5));
      continue;
    }
    const std::size_t colon = item.find(':');
    FaultProcess proc;
    proc.kind = kind_from(item.substr(0, colon));
    if (colon != std::string_view::npos) {
      for (std::string_view kv : split(item.substr(colon + 1), ',')) {
        if (kv.empty()) continue;
        const std::size_t eq = kv.find('=');
        if (eq == std::string_view::npos) {
          throw std::invalid_argument("fault plan: expected key=value, got '" +
                                      std::string(kv) + "'");
        }
        const std::string_view key = kv.substr(0, eq);
        const std::string_view val = kv.substr(eq + 1);
        if (key == "rate") {
          proc.rate = parse_number(val, key);
        } else if (key == "burst") {
          proc.burstiness = std::max(1.0, parse_number(val, key));
        } else if (key == "dur") {
          proc.duration_mean = parse_number(val, key);
        } else if (key == "mag") {
          proc.magnitude = parse_number(val, key);
        } else if (key == "start") {
          proc.start = parse_number(val, key);
        } else if (key == "end") {
          proc.end = parse_number(val, key);
        } else {
          throw std::invalid_argument("fault plan: unknown key '" +
                                      std::string(key) + "'");
        }
      }
    }
    if (proc.rate <= 0.0) {
      throw std::invalid_argument("fault plan: rate must be > 0");
    }
    plan.processes.push_back(proc);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  if (seed != 0) out += "seed=" + std::to_string(seed);
  for (const FaultProcess& p : processes) {
    if (!out.empty()) out += ';';
    out += kind_name(p.kind);
    out += ":rate=" + format(p.rate);
    if (p.burstiness != 1.0) out += ",burst=" + format(p.burstiness);
    if (p.duration_mean != 10.0) out += ",dur=" + format(p.duration_mean);
    if (p.magnitude != 1.0) out += ",mag=" + format(p.magnitude);
    if (p.start != 0.0) out += ",start=" + format(p.start);
    if (std::isfinite(p.end)) out += ",end=" + format(p.end);
  }
  return out;
}

/// Per-(process, surface) event-chain state. The Rng is forked from the
/// plan seed and the chain indices only, so two chains never share a
/// stream and adding a surface cannot reshuffle another chain's draws.
struct Injector::Stream {
  FaultProcess proc;
  std::size_t process = 0;  ///< index into the bound plan's processes
  std::size_t surface = 0;  ///< index into surfaces_
  std::size_t chain = 0;    ///< index into streams_ (checkpoint tag basis)
  sim::Rng rng;
  std::size_t burst_left = 0;  ///< faults remaining in the current burst

  /// Gap to the next onset: exponential inter-burst spacing at rate
  /// rate/burstiness, then round(burstiness) faults clustered within
  /// roughly one fault duration.
  double next_gap() {
    if (burst_left > 0) {
      --burst_left;
      const double cluster = proc.duration_mean > 0.0
                                 ? 0.5 * proc.duration_mean
                                 : 1.0 / (16.0 * proc.rate);
      return rng.exponential(cluster);
    }
    const auto burst =
        static_cast<std::size_t>(std::llround(proc.burstiness));
    burst_left = burst > 1 ? burst - 1 : 0;
    return rng.exponential(proc.burstiness / proc.rate);
  }
};

void Injector::add_surface(Surface s) { surfaces_.push_back(std::move(s)); }

void Injector::set_telemetry(sim::TelemetryBus* bus) {
  telemetry_ = bus;
  if (telemetry_) subject_ = telemetry_->intern_subject("fault.injector");
}

std::size_t Injector::bind(sim::Engine& engine, const FaultPlan& plan) {
  std::size_t chains = 0;
  for (std::size_t pi = 0; pi < plan.processes.size(); ++pi) {
    const FaultProcess& proc = plan.processes[pi];
    bool matched = false;
    for (std::size_t si = 0; si < surfaces_.size(); ++si) {
      if (surfaces_[si].kind != proc.kind) continue;
      matched = true;
      auto st = std::make_shared<Stream>();
      st->proc = proc;
      st->process = pi;
      st->surface = si;
      st->chain = streams_.size();
      // splitmix64-finalised stream id: plan seed x chain coordinates.
      st->rng = sim::Rng(sim::mix64(plan.seed ^ 0xFA01'7AB1EULL) ^
                         sim::mix64((pi << 20) | si));
      streams_.push_back(st);
      const double base = std::max(proc.start, engine.now());
      engine.at_tagged(sim::event_tag("sa.fault.arm", st->chain),
                       base + st->next_gap(),
                       [this, &engine, st] { fire(engine, st); },
                       kOrderFaults);
      ++chains;
    }
    if (!matched) ++unmatched_;
  }
  return chains;
}

void Injector::arm(sim::Engine& engine, const std::shared_ptr<Stream>& st) {
  engine.in_tagged(sim::event_tag("sa.fault.arm", st->chain), st->next_gap(),
                   [this, &engine, st] { fire(engine, st); }, kOrderFaults);
}

void Injector::fire(sim::Engine& engine, const std::shared_ptr<Stream>& st) {
  const double t = engine.now();
  if (t > st->proc.end) return;  // process window closed: chain ends
  Surface& s = surfaces_[st->surface];

  Record rec;
  rec.t = t;
  rec.kind = st->proc.kind;
  rec.surface = s.name;
  rec.unit =
      s.units > 1 ? static_cast<std::size_t>(st->rng.below(s.units)) : 0;
  rec.magnitude = st->proc.magnitude;
  const bool transient = st->proc.duration_mean > 0.0 && s.end != nullptr;
  if (transient) {
    rec.until = t + st->rng.exponential(st->proc.duration_mean);
  }

  s.begin(rec.unit, rec.magnitude);
  ++injected_;
  ++active_;
  last_onset_ = t;
  log_.push(rec);
  notify(rec);
  if (telemetry_ != nullptr) {
    telemetry_->record(t, sim::TelemetryBus::kFailure, subject_,
                       rec.magnitude,
                       std::string(kind_name(rec.kind)) + " " + rec.surface +
                           "#" + std::to_string(rec.unit));
  }

  if (transient) {
    engine.at_tagged(
        sim::event_tag("sa.fault.end", st->chain), rec.until,
        [this, &engine, st, rec] {
          surfaces_[st->surface].end(rec.unit, rec.magnitude);
          ++restored_;
          --active_;
          Record done = rec;
          done.t = engine.now();
          done.begin = false;
          log_.push(done);
          notify(done);
        },
        kOrderFaults,
        encode_end_payload(rec.t, rec.unit, rec.magnitude, rec.until));
  }
  arm(engine, st);
}

bool Injector::inject_now(sim::Engine& engine, FaultKind kind,
                          std::size_t unit, double magnitude,
                          double duration) {
  for (std::size_t si = 0; si < surfaces_.size(); ++si) {
    Surface& s = surfaces_[si];
    if (s.kind != kind) continue;
    const double t = engine.now();
    Record rec;
    rec.t = t;
    rec.kind = kind;
    rec.surface = s.name;
    rec.unit = s.units > 0 ? unit % s.units : 0;
    rec.magnitude = magnitude;
    const bool transient = duration > 0.0 && s.end != nullptr;
    if (transient) rec.until = t + duration;

    s.begin(rec.unit, rec.magnitude);
    ++injected_;
    ++active_;
    last_onset_ = t;
    log_.push(rec);
    notify(rec);
    if (telemetry_ != nullptr) {
      telemetry_->record(t, sim::TelemetryBus::kFailure, subject_,
                         rec.magnitude,
                         std::string(kind_name(rec.kind)) + " " + rec.surface +
                             "#" + std::to_string(rec.unit));
    }
    if (transient) {
      engine.at_tagged(
          sim::event_tag("sa.fault.injend", si), rec.until,
          [this, &engine, si, rec] {
            surfaces_[si].end(rec.unit, rec.magnitude);
            ++restored_;
            --active_;
            Record done = rec;
            done.t = engine.now();
            done.begin = false;
            log_.push(done);
            notify(done);
          },
          kOrderFaults,
          encode_end_payload(rec.t, rec.unit, rec.magnitude, rec.until));
    }
    return true;
  }
  return false;
}

void Injector::notify(const Record& rec) {
  for (const Listener& l : listeners_) l(rec, active_);
}

Injector::State Injector::export_state() const {
  State st;
  st.injected = injected_;
  st.restored = restored_;
  st.active = active_;
  st.unmatched = unmatched_;
  st.last_onset = last_onset_;
  st.log = records();
  st.streams.reserve(streams_.size());
  for (const auto& s : streams_) {
    StreamState ss;
    ss.process = s->process;
    ss.surface = s->surface;
    ss.rng = s->rng.state();
    ss.burst_left = s->burst_left;
    st.streams.push_back(ss);
  }
  return st;
}

}  // namespace sa::fault

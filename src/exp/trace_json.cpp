#include "exp/trace_json.hpp"

#include <algorithm>
#include <ostream>

namespace sa::exp {

namespace {

Json meta_event(int pid, int tid, const char* field,
                const std::string& value) {
  Json m = Json::object();
  m["ph"] = "M";
  m["pid"] = pid;
  m["tid"] = tid;
  m["name"] = field;
  m["args"]["name"] = value;
  return m;
}

Json meta_event(int tid, const char* field, const std::string& value) {
  return meta_event(1, tid, field, value);
}

/// Appends one tracer's events to `events` under process id `pid`.
/// Factored out of chrome_trace so the merger reuses the exact same
/// event mapping.
void append_tracer_events(Json& events, const sim::Tracer& tracer, int pid) {
  using Kind = sim::Tracer::Event::Kind;
  for (const sim::Tracer::Event& e : tracer.events()) {
    Json j = Json::object();
    switch (e.kind) {
      case Kind::Begin: {
        j["name"] = tracer.name(e.name);
        j["cat"] = "span";
        j["ph"] = "B";
        j["ts"] = e.t * 1e6;
        j["pid"] = pid;
        j["tid"] = static_cast<int>(e.subject);
        Json& args = j["args"] = Json::object();
        args["trace_id"] = static_cast<std::int64_t>(e.id);
        for (const auto& [key, value] : e.args) {
          args[tracer.name(key)] = value;
        }
        break;
      }
      case Kind::End:
        j["ph"] = "E";
        j["ts"] = e.t * 1e6;
        j["pid"] = pid;
        j["tid"] = static_cast<int>(e.subject);
        break;
      case Kind::Flow:
        j["name"] = tracer.name(e.name);
        j["cat"] = "flow";
        j["ph"] = e.phase == sim::FlowPhase::Begin  ? "s"
                  : e.phase == sim::FlowPhase::Step ? "t"
                                                    : "f";
        j["id"] = static_cast<std::int64_t>(e.id);
        j["ts"] = e.t * 1e6;
        j["pid"] = pid;
        j["tid"] = static_cast<int>(e.subject);
        // Bind the terminating point to the enclosing slice, matching
        // how the chain's earlier points attach.
        if (e.phase == sim::FlowPhase::End) j["bp"] = "e";
        break;
    }
    events.push_back(std::move(j));
  }
}

}  // namespace

Json chrome_trace(const sim::Tracer& tracer) {
  const sim::TelemetryBus& bus = tracer.bus();
  Json doc = Json::object();
  doc["displayTimeUnit"] = "ms";
  Json& events = doc["traceEvents"] = Json::array();

  events.push_back(meta_event(0, "process_name", "sa-sim"));
  for (sim::SubjectId s = 0; s < bus.subjects(); ++s) {
    events.push_back(
        meta_event(static_cast<int>(s), "thread_name", bus.subject_name(s)));
  }

  append_tracer_events(events, tracer, /*pid=*/1);
  return doc;
}

void write_chrome_trace(std::ostream& os, const sim::Tracer& tracer) {
  chrome_trace(tracer).dump(os, /*indent=*/-1);
  os << "\n";
}

Json merge_perfetto(const std::vector<const sim::Tracer*>& tracers,
                    const MergeOptions& opts, MergeStats* stats) {
  Json doc = Json::object();
  doc["displayTimeUnit"] = "ms";
  Json& events = doc["traceEvents"] = Json::array();

  MergeStats local;
  local.tracers = tracers.size();

  /// One stitch-span instance (a Begin event named opts.stitch_span).
  struct StitchPoint {
    double t = 0.0;
    std::size_t tracer = 0;  ///< index into `tracers`
    std::size_t event = 0;   ///< emission index within that tracer
    int pid = 0;
    int tid = 0;
  };
  std::vector<StitchPoint> points;

  for (std::size_t i = 0; i < tracers.size(); ++i) {
    const sim::Tracer& tracer = *tracers[i];
    const int pid = static_cast<int>(i) + 1;
    const sim::TelemetryBus& bus = tracer.bus();
    events.push_back(meta_event(
        pid, 0, "process_name",
        "sa-sim ns" + std::to_string(tracer.trace_namespace())));
    for (sim::SubjectId s = 0; s < bus.subjects(); ++s) {
      events.push_back(meta_event(pid, static_cast<int>(s), "thread_name",
                                  bus.subject_name(s)));
    }
    append_tracer_events(events, tracer, pid);
    local.events += tracer.events().size();

    for (std::size_t e = 0; e < tracer.events().size(); ++e) {
      const sim::Tracer::Event& ev = tracer.events()[e];
      if (ev.kind != sim::Tracer::Event::Kind::Begin) continue;
      if (tracer.name(ev.name) != opts.stitch_span) continue;
      points.push_back(
          {ev.t, i, e, pid, static_cast<int>(ev.subject)});
    }
  }
  local.stitch_points = points.size();

  // Deterministic global order: sim time, then tracer index, then emission
  // order — no wall clock, no pointer values.
  std::stable_sort(points.begin(), points.end(),
                   [](const StitchPoint& a, const StitchPoint& b) {
                     if (a.t != b.t) return a.t < b.t;
                     if (a.tracer != b.tracer) return a.tracer < b.tracer;
                     return a.event < b.event;
                   });

  // Link each stitch point to the next one from a *different* tracer:
  // exchange rounds interleave across agents, so consecutive cross-tracer
  // points are exactly the "knowledge left agent A, next handled by agent
  // B" hops. Ids live in the reserved 0xffff namespace.
  sim::TraceId stitch_counter = 0;
  for (std::size_t a = 0; a + 1 < points.size(); ++a) {
    const StitchPoint& from = points[a];
    const StitchPoint* to = nullptr;
    for (std::size_t b = a + 1; b < points.size(); ++b) {
      if (points[b].tracer != from.tracer) {
        to = &points[b];
        break;
      }
    }
    if (to == nullptr) break;
    const sim::TraceId id =
        (sim::TraceId{0xffff} << sim::kTraceNamespaceShift) |
        (++stitch_counter & sim::kTraceCounterMask);
    Json s = Json::object();
    s["name"] = "stitch";
    s["cat"] = "stitch";
    s["ph"] = "s";
    s["id"] = static_cast<std::int64_t>(id);
    s["ts"] = from.t * 1e6;
    s["pid"] = from.pid;
    s["tid"] = from.tid;
    events.push_back(std::move(s));
    Json f = Json::object();
    f["name"] = "stitch";
    f["cat"] = "stitch";
    f["ph"] = "f";
    f["id"] = static_cast<std::int64_t>(id);
    f["ts"] = to->t * 1e6;
    f["pid"] = to->pid;
    f["tid"] = to->tid;
    f["bp"] = "e";
    events.push_back(std::move(f));
    ++local.stitches;
  }

  if (stats != nullptr) *stats = local;
  return doc;
}

}  // namespace sa::exp

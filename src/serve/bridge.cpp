#include "serve/bridge.hpp"

#include <algorithm>
#include <utility>

namespace sa::serve {

namespace {

/// Newest explanations, injector records and slow requests in /status.
constexpr std::size_t kStatusExplanations = 8;
constexpr std::size_t kStatusFaults = 16;
constexpr std::size_t kStatusSlowRequests = 16;

HttpResponse json_response(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

/// Constant-time comparison: the time depends only on the longer length,
/// never on where the first mismatching byte sits, so a remote caller
/// cannot binary-search the control token byte by byte.
bool token_equal(std::string_view a, std::string_view b) {
  const std::size_t n = std::max(a.size(), b.size());
  unsigned diff = static_cast<unsigned>(a.size() ^ b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char ca = i < a.size() ? static_cast<unsigned char>(a[i])
                                          : static_cast<unsigned char>(0);
    const unsigned char cb = i < b.size() ? static_cast<unsigned char>(b[i])
                                          : static_cast<unsigned char>(0);
    diff |= static_cast<unsigned>(ca ^ cb);
  }
  return diff == 0;
}

/// The token a control request presented: the `token=` form field, or an
/// `Authorization: Bearer …` header.
std::string presented_token(const HttpRequest& req) {
  std::string tok = ckpt::form_get(req.body, "token");
  if (!tok.empty()) return tok;
  const std::string* auth = req.header("Authorization");
  constexpr std::string_view kBearer = "Bearer ";
  if (auth != nullptr && auth->size() > kBearer.size() &&
      std::string_view(*auth).substr(0, kBearer.size()) == kBearer) {
    return auth->substr(kBearer.size());
  }
  return {};
}

template <class T>
const T* ptr(const std::optional<T>& v) {
  return v.has_value() ? &*v : nullptr;
}

}  // namespace

SimBridge::SimBridge(Options opts) : opts_(std::move(opts)) {
  if (opts_.publish_period <= 0.0) opts_.publish_period = 0.1;
  Frame unpublished;
  unpublished.status = "{\"published\":false}\n";
  frame_.emplace(std::move(unpublished));
}

void SimBridge::set_telemetry(sim::TelemetryBus* bus) {
  bus_ = bus;
  if (bus_ != nullptr && fanout_ == nullptr) {
    fanout_ = std::make_unique<sim::FanoutSink>(opts_.sse_queue);
    bus_->add_sink(fanout_.get());
  }
}

void SimBridge::add_agent(core::SelfAwareAgent* agent) {
  if (agent != nullptr) agents_.push_back(agent);
}

void SimBridge::add_degradation(core::DegradationPolicy* policy) {
  if (policy != nullptr) ladders_.push_back(policy);
}

void SimBridge::attach(sim::Engine& engine) {
  engine_ = &engine;
  engine.every_tagged(
      sim::event_tag("sa.serve.publish"), opts_.publish_period,
      [this, &engine] {
        drain_mailbox(&engine);
        publish_now(engine.now());
        return !shutdown_requested();
      },
      ckpt::kControlOrder);
  drain_mailbox(&engine);
  publish_now(engine.now());
  attached_.store(true, std::memory_order_release);
}

void SimBridge::install(Server& server) {
  server_ = &server;
  server.route("GET", "/metrics",
               [this](const HttpRequest&) { return handle_metrics(); });
  server.route("GET", "/status",
               [this](const HttpRequest&) { return handle_status(); });
  server.route("GET", "/healthz", [](const HttpRequest&) {
    HttpResponse resp;
    resp.body = "ok\n";
    return resp;
  });
  server.route("POST", "/control",
               [this](const HttpRequest& req) { return handle_control(req); });
  server.route_stream(
      "/events",
      [this](const HttpRequest&, StreamWriter& w) { handle_events(w); });
}

std::shared_ptr<const SimBridge::NameTable> SimBridge::current_names() {
  const std::size_t metrics = metrics_ != nullptr ? metrics_->size() : 0;
  const std::size_t categories = bus_ != nullptr ? bus_->categories() : 0;
  const std::size_t subjects = bus_ != nullptr ? bus_->subjects() : 0;
  if (names_ != nullptr && names_->metrics.size() == metrics &&
      names_->categories.size() == categories &&
      names_->subjects.size() == subjects) {
    return names_;
  }
  auto names = std::make_shared<NameTable>();
  names->metrics.reserve(metrics);
  for (sim::MetricsRegistry::MetricId m = 0; m < metrics; ++m) {
    names->metrics.push_back(metrics_->name(m));
  }
  names->categories.reserve(categories);
  for (sim::CategoryId c = 0; c < categories; ++c) {
    names->categories.push_back(bus_->category_name(c));
  }
  names->subjects.reserve(subjects);
  for (sim::SubjectId s = 0; s < subjects; ++s) {
    names->subjects.push_back(bus_->subject_name(s));
  }
  names_ = std::move(names);
  return names_;
}

void SimBridge::publish_now(double t) {
  ++publishes_;
  // Stamp the server's self-model with the sim clock so slow-request ring
  // entries can say *when in the simulation* a scrape was slow.
  if (server_ != nullptr) server_->stats().set_sim_time(t);
  auto frame = std::make_shared<Frame>();
  frame->names = current_names();
  const NameTable& names = *frame->names;
  if (metrics_ != nullptr) {
    frame->metrics = capture_metrics(*metrics_, names.metrics, t, publishes_);
  }
  if (bus_ != nullptr) {
    BusSnapshot& bus = frame->bus.emplace();
    bus.t = t;
    bus.total = bus_->total();
    bus.categories.reserve(names.categories.size());
    for (sim::CategoryId c = 0; c < names.categories.size(); ++c) {
      bus.categories.push_back({names.categories[c], bus_->count(c)});
    }
  }
  if (shard_source_) {
    frame->shard = shard_source_();
    frame->shard->t = t;
  }
  frame->status = build_status(t, ptr(frame->shard));
  frame_.publish(std::move(frame));
}

void SimBridge::drain_mailbox(sim::Engine* engine) {
  std::vector<Posted> cmds;
  {
    std::unique_lock lk(mailbox_mu_, std::try_to_lock);
    if (lk.owns_lock()) cmds.swap(mailbox_);
    // A contended mailbox just waits for the next drain period.
  }
  for (const Posted& cmd : cmds) {
    if (cmd.has_value()) {
      if (injector_ != nullptr && engine != nullptr) {
        ckpt::apply(*cmd, *engine, *injector_);
        if (journal_ != nullptr) journal_->record(engine->now(), *cmd);
      }
    } else if (checkpoint_hook_) {
      // Not journaled: a checkpoint reads state but never mutates the
      // trajectory, so replaying one would be meaningless.
      const double t = engine != nullptr ? engine->now() : 0.0;
      if (checkpoint_hook_(t)) note_checkpoint(t);
    }
    commands_applied_.fetch_add(1, std::memory_order_relaxed);
  }
  if (paused_.load(std::memory_order_relaxed)) {
    // Let /status show the pause before the sim thread blocks on it.
    publish_now(engine != nullptr ? engine->now() : 0.0);
    std::unique_lock lk(pause_mu_);
    pause_cv_.wait(lk, [this] {
      return !paused_.load(std::memory_order_relaxed) ||
             shutdown_.load(std::memory_order_relaxed);
    });
  }
}

void SimBridge::post(Posted cmd) {
  const std::scoped_lock lk(mailbox_mu_);
  mailbox_.push_back(cmd);
}

ServeStats SimBridge::serve_stats() const {
  ServeStats st;
  if (server_ != nullptr) {
    st.connections = server_->connections();
    st.requests = server_->requests();
    st.parse_errors = server_->parse_errors();
  }
  if (fanout_ != nullptr) {
    st.sse_subscribers = fanout_->subscribers();
    st.sse_dropped_contended = fanout_->dropped_contended();
    st.sse_dropped_overflow = fanout_->dropped_overflow();
  }
  return st;
}

HttpResponse SimBridge::handle_metrics() const {
  const auto frame = frame_.read();
  const ServeStats st = serve_stats();
  std::optional<ServerStats::Snapshot> self;
  if (server_ != nullptr) self = server_->stats().snapshot();
  HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  resp.body = render_prometheus(ptr(frame->metrics), ptr(frame->bus), &st,
                                ptr(self), ptr(frame->shard));
  return resp;
}

HttpResponse SimBridge::handle_status() const {
  return json_response(200, frame_.read()->status);
}

HttpResponse SimBridge::handle_control(const HttpRequest& req) {
  if (!opts_.control_token.empty() &&
      !token_equal(presented_token(req), opts_.control_token)) {
    return json_response(401, "{\"error\":\"control token required\"}\n");
  }
  const std::string cmd = ckpt::form_get(req.body, "cmd");
  if (cmd == "pause") {
    paused_.store(true, std::memory_order_relaxed);
    return json_response(202, "{\"queued\":\"pause\"}\n");
  }
  if (cmd == "resume") {
    {
      // The store must be ordered with the sim thread's predicate check in
      // drain_mailbox(): unlocked, the notify could land between that check
      // and the wait and be lost, leaving the sim paused indefinitely.
      const std::scoped_lock lk(pause_mu_);
      paused_.store(false, std::memory_order_relaxed);
    }
    pause_cv_.notify_all();
    return json_response(202, "{\"queued\":\"resume\"}\n");
  }
  if (cmd == "shutdown") {
    {
      const std::scoped_lock lk(pause_mu_);  // same ordering as resume
      shutdown_.store(true, std::memory_order_relaxed);
    }
    pause_cv_.notify_all();
    return json_response(200, "{\"shutdown\":true}\n");
  }
  if ((cmd == "inject" || cmd == "checkpoint") &&
      !attached_.load(std::memory_order_acquire)) {
    return json_response(503,
                         "{\"error\":\"no simulation attached yet\"}\n");
  }
  if (cmd == "inject") {
    if (injector_ == nullptr) {
      return json_response(503, "{\"error\":\"no injector wired\"}\n");
    }
    ckpt::ControlCommand c;
    if (const ckpt::Status st = ckpt::ControlCommand::parse_form(req.body, c);
        !st.ok()) {
      return json_response(
          400, "{\"error\":\"" + json_escape(st.detail) + "\"}\n");
    }
    post(c);
    return json_response(202, "{\"queued\":\"inject\"}\n");
  }
  if (cmd == "checkpoint") {
    if (!checkpoint_hook_) {
      return json_response(
          503, "{\"error\":\"checkpointing not enabled (run with "
               "--checkpoint)\"}\n");
    }
    post(std::nullopt);
    return json_response(202, "{\"queued\":\"checkpoint\"}\n");
  }
  return json_response(
      400,
      "{\"error\":\"unknown cmd; expected pause|resume|shutdown|inject|"
      "checkpoint\"}\n");
}

void SimBridge::handle_events(StreamWriter& writer) {
  if (fanout_ == nullptr) {
    writer.write("event: error\ndata: no telemetry bus wired\n\n");
    return;
  }
  const auto sub = fanout_->subscribe();
  while (writer.open() && !shutdown_requested()) {
    const auto recs = sub->drain(/*wait_ms=*/250);
    if (recs.empty()) {
      // Comment frame: keeps intermediaries from timing the stream out and
      // detects a dead client between events.
      if (!writer.write(": keep-alive\n\n")) break;
      continue;
    }
    const auto frame = frame_.read();
    const NameTable* names = frame->names.get();
    std::string payload;
    payload.reserve(recs.size() * 96);
    for (const auto& r : recs) {
      const std::string& cat =
          names != nullptr && r.category < names->categories.size()
              ? names->categories[r.category]
              : std::to_string(r.category);
      const std::string& subj =
          names != nullptr && r.subject < names->subjects.size()
              ? names->subjects[r.subject]
              : std::to_string(r.subject);
      payload += "data: {\"t\":";
      payload += format_value(r.t);
      payload += ",\"category\":\"";
      payload += json_escape(cat);
      payload += "\",\"subject\":\"";
      payload += json_escape(subj);
      payload += "\",\"value\":";
      payload += format_value(r.value);
      payload += ",\"detail\":\"";
      payload += json_escape(r.detail);
      payload += "\"}\n\n";
    }
    if (!writer.write(payload)) break;
  }
  // Per-subscriber drops were already aggregated into the sink's overflow
  // counter at offer time, so nothing to fold in here.
  fanout_->unsubscribe(sub);
}

std::string SimBridge::build_status(double t,
                                    const ShardSnapshot* shard) const {
  std::string out;
  out.reserve(1024);
  out += "{\"t\":";
  out += format_value(t);
  out += ",\"publishes\":";
  out += std::to_string(publishes_);
  out += ",\"paused\":";
  out += paused_.load(std::memory_order_relaxed) ? "true" : "false";
  out += ",\"commands_applied\":";
  out += std::to_string(commands_applied_.load(std::memory_order_relaxed));
  out += ",\"checkpoint\":{\"count\":";
  out += std::to_string(ckpt_count_.load(std::memory_order_relaxed));
  out += ",\"last_t\":";
  out += format_value(ckpt_last_t_.load(std::memory_order_relaxed));
  out += ",\"enabled\":";
  out += checkpoint_hook_ ? "true" : "false";
  out += '}';
  if (engine_ != nullptr) {
    out += ",\"engine\":{\"executed\":";
    out += std::to_string(engine_->executed());
    out += ",\"pending\":";
    out += std::to_string(engine_->pending());
    out += '}';
  }

  // The frame's own shard counts, so /status and /metrics agree.
  if (shard != nullptr) {
    out += ",\"shards\":{\"events\":[";
    for (std::size_t i = 0; i < shard->events.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(shard->events[i]);
    }
    out += "],\"lag_seconds\":";
    out += format_value(shard->lag_seconds);
    out += '}';
  }

  if (server_ != nullptr) {
    const ServerStats::Snapshot self = server_->stats().snapshot();
    out += ",\"serve\":{\"active_connections\":";
    out += std::to_string(self.active);
    out += ",\"keepalive_reuses\":";
    out += std::to_string(self.keepalive_reuses);
    out += ",\"slow_requests\":[";
    const std::size_t n = std::min(kStatusSlowRequests, self.slow.size());
    for (std::size_t i = self.slow.size() - n; i < self.slow.size(); ++i) {
      const ServerStats::SlowRequest& s = self.slow[i];
      if (i != self.slow.size() - n) out += ',';
      out += "{\"route\":\"";
      out += route_label(s.route);
      out += "\",\"duration_s\":";
      out += format_value(s.duration_s);
      out += ",\"status\":";
      out += std::to_string(s.status);
      out += ",\"sim_t\":";
      out += format_value(s.sim_t);
      out += '}';
    }
    out += "]}";
  }

  out += ",\"agents\":[";
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const core::SelfAwareAgent& a = *agents_[i];
    if (i) out += ',';
    out += "{\"id\":\"";
    out += json_escape(a.id());
    out += "\",\"steps\":";
    out += std::to_string(a.steps());
    out += ",\"active_levels\":\"";
    out += json_escape(a.active_levels().to_string());
    out += "\",\"utility\":";
    out += format_value(a.current_utility());
    out += ",\"sensor_gaps\":";
    out += std::to_string(a.sensor_gaps());
    out += '}';
  }
  out += ']';

  out += ",\"degradation\":[";
  for (std::size_t i = 0; i < ladders_.size(); ++i) {
    core::DegradationPolicy& d = *ladders_[i];
    if (i) out += ',';
    out += "{\"agent\":\"";
    out += json_escape(d.agent().id());
    out += "\",\"mode\":\"";
    out += core::DegradationPolicy::mode_name(d.mode());
    out += "\",\"rung\":";
    out += std::to_string(d.rung());
    out += ",\"degradations\":";
    out += std::to_string(d.degradations());
    out += ",\"recoveries\":";
    out += std::to_string(d.recoveries());
    out += ",\"last_trigger\":\"";
    out += json_escape(d.last_trigger());
    out += "\"}";
  }
  out += ']';

  if (injector_ != nullptr) {
    out += ",\"faults\":{\"injected\":";
    out += std::to_string(injector_->injected());
    out += ",\"restored\":";
    out += std::to_string(injector_->restored());
    out += ",\"active\":";
    out += std::to_string(injector_->active());
    out += ",\"recent\":[";
    const auto& log = injector_->log();
    const std::size_t n = std::min(kStatusFaults, log.size());
    for (std::size_t i = log.size() - n; i < log.size(); ++i) {
      const fault::Injector::Record& r = log[i];
      const fault::Injector::Surface& s = injector_->surface(r.surface);
      if (i != log.size() - n) out += ',';
      out += "{\"t\":";
      out += format_value(r.t);
      out += ",\"kind\":\"";
      out += fault::kind_name(s.kind);
      out += "\",\"surface\":\"";
      out += json_escape(s.name);
      out += "\",\"unit\":";
      out += std::to_string(r.unit);
      out += ",\"magnitude\":";
      out += format_value(r.magnitude);
      out += ",\"begin\":";
      out += r.begin ? "true" : "false";
      out += '}';
    }
    out += "]}";
  }

  out += ",\"explanations\":[";
  bool first = true;
  for (const core::SelfAwareAgent* a : agents_) {
    // Rendered in place on the sim thread: only the text crosses threads.
    const core::Explainer& ex = a->explainer();
    for (std::size_t i = ex.size() - std::min(kStatusExplanations, ex.size());
         i < ex.size(); ++i) {
      const core::Explanation& e = ex.at(i);
      if (!first) out += ',';
      first = false;
      out += "{\"agent\":\"";
      out += json_escape(a->id());
      out += "\",\"t\":";
      out += format_value(e.t);
      out += ",\"text\":\"";
      out += json_escape(a->render(e));
      out += "\"}";
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace sa::serve

#include "ckpt/state.hpp"

#include <utility>

namespace sa::ckpt {
namespace {

Status malformed(std::string_view what) {
  return Status::error(Errc::kMalformed, std::string(what));
}

}  // namespace

// -- sim::Engine --------------------------------------------------------------

namespace {

void save_timeline(const sim::Engine::Timeline& tl, Buffer& out) {
  out.f64(tl.now);
  out.u64(tl.seq);
  out.u64(tl.executed);
  out.u64(tl.events.size());
  for (const sim::Engine::TimelineEvent& ev : tl.events) {
    out.f64(ev.t);
    out.i64(ev.order);  // wide, so the format never truncates an order
    out.u64(ev.seq);
    out.u64(ev.tag);
    out.boolean(ev.is_periodic);
    if (ev.is_periodic) {
      out.f64(ev.base);
      out.f64(ev.period);
      out.u64(ev.n);
    } else {
      out.str(ev.payload);
    }
  }
}

}  // namespace

Status save_engine(const sim::Engine& engine, Buffer& out) {
  sim::Engine::Timeline tl;
  std::string err;
  if (!engine.export_timeline(tl, &err))
    return Status::error(Errc::kUntaggedEvent, err);
  save_timeline(tl, out);
  return {};
}

// -- sim::Rng -----------------------------------------------------------------

void save_rng(const sim::Rng::State& s, Buffer& out) {
  for (int i = 0; i < 4; ++i) out.u64(s.s[i]);
  out.f64(s.spare);
  out.boolean(s.has_spare);
}

// -- core::KnowledgeBase ------------------------------------------------------

namespace {

/// Kind byte before each value. The image format tags a double as 2, its
/// index among the value kinds the format was defined with. Every value is
/// a double, so the byte is constant; it stays so images keep their bytes.
constexpr std::uint8_t kDoubleKind = 2;

void save_item(const core::KnowledgeItem& item, Buffer& out) {
  out.u8(kDoubleKind);
  out.f64(item.value);
  out.f64(item.time);
  out.f64(item.confidence);
  out.u8(static_cast<std::uint8_t>(item.scope));
  out.str(item.source);
  out.f64(item.ttl);
}

}  // namespace

void save_knowledge(const core::KnowledgeBase& kb, Buffer& out) {
  out.u64(kb.history_limit());
  out.f64(kb.default_ttl());
  const std::vector<std::string> keys = kb.keys();  // ascending — canonical
  out.u64(keys.size());
  for (const std::string& key : keys) {
    out.str(key);
    const std::vector<core::KnowledgeItem> history = kb.history(key);
    out.u64(history.size());
    for (const core::KnowledgeItem& item : history) save_item(item, out);
  }
}

// -- fault::Injector ----------------------------------------------------------

namespace {

void save_record(const fault::Injector::Record& rec, Buffer& out) {
  out.f64(rec.t);
  out.u8(static_cast<std::uint8_t>(rec.kind));
  out.str(rec.surface);
  out.u64(rec.unit);
  out.f64(rec.magnitude);
  out.f64(rec.until);
  out.boolean(rec.begin);
}

}  // namespace

void save_injector(const fault::Injector& inj, Buffer& out) {
  const fault::Injector::State st = inj.export_state();
  out.u64(st.injected);
  out.u64(st.restored);
  out.u64(st.active);
  out.u64(st.unmatched);
  out.f64(st.last_onset);
  out.u64(st.log.size());
  for (const fault::Injector::Record& rec : st.log) save_record(rec, out);
  out.u64(st.streams.size());
  for (const fault::Injector::StreamState& s : st.streams) {
    out.u64(s.process);
    out.u64(s.surface);
    save_rng(s.rng, out);
    out.u64(s.burst_left);
  }
}

// -- core::DegradationPolicy --------------------------------------------------

void save_ladder(const core::DegradationPolicy& p, Buffer& out) {
  const core::DegradationPolicy::State st = p.export_state();
  out.u8(static_cast<std::uint8_t>(st.mode));
  out.u64(st.breach_streak);
  out.u64(st.clean_streak);
  out.u64(st.degradations);
  out.u64(st.recoveries);
  out.f64(st.dwell);
  out.f64(st.last_t);
  out.boolean(st.seen_update);
  out.str(st.last_trigger);
}

// -- core::AgentRuntime -------------------------------------------------------

void save_runtime(const core::AgentRuntime& rt, Buffer& out) {
  const core::AgentRuntime::State st = rt.export_state();
  out.u64(st.steps);
  out.u64(0);  // a retired substrate-tick counter; kept so images are stable
  out.u64(st.exchanged);
  out.u64(st.exchange_drops);
  out.u64(st.exchange_retries);
  out.u64(st.exchange_timeouts);
  out.boolean(st.exchange_blocked);
}

// -- WorldCheckpoint ----------------------------------------------------------

std::string WorldCheckpoint::section_name(const std::string& component) {
  return "c." + component;
}

void WorldCheckpoint::add(std::string name,
                          std::function<Status(Buffer&)> save) {
  components_.push_back(Component{std::move(name), std::move(save)});
}

Status WorldCheckpoint::save(const Meta& meta, std::string& image) const {
  Writer w;
  Buffer m;
  m.f64(meta.t);
  m.u64(meta.seed);
  m.str(meta.recipe);
  m.str(meta.fault_plan);
  w.section("meta", m);
  for (const Component& c : components_) {
    Buffer b;
    if (Status st = c.save(b); !st.ok()) {
      st.detail = "component '" + c.name + "': " + st.detail;
      return st;
    }
    w.section(section_name(c.name), b);
  }
  image = w.finish();
  return {};
}

Status WorldCheckpoint::save_file(const Meta& meta,
                                  const std::string& path) const {
  std::string image;
  if (Status st = save(meta, image); !st.ok()) return st;
  return write_file_atomic(path, image);
}

Status WorldCheckpoint::read_meta(const Reader& r, Meta& out) {
  out = Meta{};
  Cursor c;
  if (Status st = r.open("meta", c); !st.ok()) return st;
  std::uint64_t seed = 0;
  if (!c.f64(out.t) || !c.u64(seed) || !c.str(out.recipe) ||
      !c.str(out.fault_plan))
    return malformed("meta section");
  out.seed = seed;
  return c.finish("meta section");
}

Status WorldCheckpoint::verify(const Reader& r, const Meta* expect) const {
  if (expect != nullptr) {
    Meta have;
    if (Status st = read_meta(r, have); !st.ok()) return st;
    if (have.recipe != expect->recipe)
      return Status::error(Errc::kShapeMismatch,
                           "checkpoint recipe '" + have.recipe +
                               "' != run recipe '" + expect->recipe + "'");
    if (have.seed != expect->seed)
      return Status::error(Errc::kShapeMismatch,
                           "checkpoint seed " + std::to_string(have.seed) +
                               " != run seed " +
                               std::to_string(expect->seed));
    if (have.fault_plan != expect->fault_plan)
      return Status::error(Errc::kShapeMismatch,
                           "checkpoint fault plan '" + have.fault_plan +
                               "' != run plan '" + expect->fault_plan + "'");
  }
  for (const Component& c : components_) {
    const std::string section = section_name(c.name);
    if (!r.has(section))
      return Status::error(Errc::kMissingSection, section);
    Buffer b;
    if (Status st = c.save(b); !st.ok()) {
      st.detail = "component '" + c.name + "': " + st.detail;
      return st;
    }
    if (b.data() != r.payload(section))
      return Status::error(Errc::kStateDivergence,
                           "component '" + c.name +
                               "' does not byte-match the checkpoint");
  }
  return {};
}

}  // namespace sa::ckpt

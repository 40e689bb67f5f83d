#include "ckpt/journal.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

namespace sa::ckpt {
namespace {

/// Round-trip double rendering (shortest would be nicer; %.17g is exact).
std::string render_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// application/x-www-form-urlencoded decoding: '+' -> space, %XX -> byte.
/// Returns false on a truncated or non-hex escape.
bool form_decode(std::string_view in, std::string& out) {
  const auto hex = [](char h) -> int {
    if (h >= '0' && h <= '9') return h - '0';
    if (h >= 'a' && h <= 'f') return h - 'a' + 10;
    if (h >= 'A' && h <= 'F') return h - 'A' + 10;
    return -1;
  };
  out.clear();
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%') {
      if (i + 2 >= in.size()) return false;
      const int hi = hex(in[i + 1]);
      const int lo = hex(in[i + 2]);
      if (hi < 0 || lo < 0) return false;
      out += static_cast<char>(hi * 16 + lo);
      i += 2;
    } else {
      out += c;
    }
  }
  return true;
}

/// The raw (still encoded) value of `key` in a "k=v&k=v" body, or nullopt
/// if the key is absent.
std::optional<std::string_view> form_raw(std::string_view body,
                                         std::string_view key) {
  std::size_t pos = 0;
  std::string k;
  while (pos < body.size()) {
    std::size_t amp = body.find('&', pos);
    if (amp == std::string_view::npos) amp = body.size();
    const std::string_view pair = body.substr(pos, amp - pos);
    pos = amp + 1;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) continue;
    if (form_decode(pair.substr(0, eq), k) && k == key) {
      return pair.substr(eq + 1);
    }
  }
  return std::nullopt;
}

/// A finite double spelling all of `s` (strtod alone also takes "inf" and
/// "nan", and saturates overflow to infinity).
bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !std::isfinite(v)) return false;
  out = v;
  return true;
}

/// A non-negative count that fits size_t (fractions truncate). Checked
/// before the cast: converting an out-of-range double is undefined.
bool parse_size(const std::string& s, std::size_t& out) {
  constexpr double kLimit =
      static_cast<double>(std::numeric_limits<std::size_t>::max()) + 1.0;
  double d = 0.0;
  if (!parse_double(s, d) || d < 0.0 || d >= kLimit) return false;
  out = static_cast<std::size_t>(d);
  return true;
}

/// Reads optional numeric field `key` with `parse`: an absent field keeps
/// `out` unchanged; a present one must decode and parse.
template <typename T>
bool form_number(std::string_view body, std::string_view key, T& out,
                 bool (*parse)(const std::string&, T&)) {
  const std::optional<std::string_view> raw = form_raw(body, key);
  if (!raw) return true;
  std::string v;
  return form_decode(*raw, v) && parse(v, out);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\n' || s.front() == '\r'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\n' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

}  // namespace

std::string form_get(std::string_view body, std::string_view key) {
  const std::optional<std::string_view> raw = form_raw(body, key);
  std::string v;
  if (!raw || !form_decode(*raw, v)) return {};
  return v;
}

std::string ControlCommand::to_form() const {
  std::string out = "cmd=inject&kind=";
  out += fault::kind_name(fault_kind);
  out += "&unit=" + std::to_string(unit);
  out += "&mag=" + render_double(magnitude);
  out += "&dur=" + render_double(duration);
  return out;
}

Status ControlCommand::parse_form(std::string_view body, ControlCommand& out) {
  out = ControlCommand{};
  const std::string cmd = form_get(body, "cmd");
  if (cmd != "inject") {
    return Status::error(Errc::kMalformed,
                         "control journal supports cmd=inject, got '" + cmd +
                             "'");
  }
  try {
    out.fault_kind = fault::kind_from(form_get(body, "kind"));
  } catch (const std::invalid_argument& e) {
    return Status::error(Errc::kMalformed, e.what());
  }
  const char* bad =
      !form_number(body, "unit", out.unit, parse_size)        ? "unit"
      : !form_number(body, "mag", out.magnitude, parse_double) ? "mag"
      : !form_number(body, "dur", out.duration, parse_double)  ? "dur"
                                                               : nullptr;
  if (bad != nullptr) {
    return Status::error(Errc::kMalformed,
                         std::string("inject: malformed, non-finite or "
                                     "out-of-range ") +
                             bad);
  }
  return {};
}

void apply(const ControlCommand& cmd, sim::Engine& engine,
           fault::Injector& injector) {
  injector.inject_now(engine, cmd.fault_kind, cmd.unit, cmd.magnitude,
                      cmd.duration);
}

Status parse_journal_spec(std::string_view spec,
                          std::vector<JournalEntry>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t semi = spec.find(';', pos);
    if (semi == std::string_view::npos) semi = spec.size();
    const std::string_view item = trim(spec.substr(pos, semi - pos));
    pos = semi + 1;
    if (item.empty()) continue;
    const std::size_t sp = item.find(' ');
    if (sp == std::string_view::npos)
      return Status::error(Errc::kMalformed,
                           "journal entry needs 'T body': '" +
                               std::string(item) + "'");
    JournalEntry e;
    if (!parse_double(std::string(item.substr(0, sp)), e.t) || e.t < 0.0)
      return Status::error(Errc::kMalformed,
                           "bad journal timestamp in '" + std::string(item) +
                               "'");
    if (Status st =
            ControlCommand::parse_form(trim(item.substr(sp + 1)), e.cmd);
        !st.ok())
      return st;
    out.push_back(std::move(e));
  }
  return {};
}

std::string journal_spec(const std::vector<JournalEntry>& in) {
  std::string out;
  for (const JournalEntry& e : in) {
    if (!out.empty()) out += "; ";
    out += render_double(e.t);
    out += ' ';
    out += e.cmd.to_form();
  }
  return out;
}

void save_journal(const std::vector<JournalEntry>& in, Buffer& out) {
  out.u64(in.size());
  for (const JournalEntry& e : in) {
    out.f64(e.t);
    out.str(e.cmd.to_form());
  }
}

Status load_journal(Cursor& in, std::vector<JournalEntry>& out) {
  out.clear();
  std::uint64_t n = 0;
  if (!in.u64(n)) return Status::error(Errc::kMalformed, "journal count");
  out.reserve(static_cast<std::size_t>(n));
  std::string body;
  for (std::uint64_t i = 0; i < n; ++i) {
    JournalEntry e;
    if (!in.f64(e.t) || !in.str(body))
      return Status::error(Errc::kMalformed, "journal entry");
    if (Status st = ControlCommand::parse_form(body, e.cmd); !st.ok())
      return st;
    out.push_back(std::move(e));
  }
  return {};
}

void schedule_replay(sim::Engine& engine, std::vector<JournalEntry> entries,
                     int order, fault::Injector* injector) {
  if (injector == nullptr) return;
  // Replay events are themselves tagged (by journal position), so a
  // restored-and-replaying world can be checkpointed again.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    engine.at_tagged(
        sim::event_tag("sa.ckpt.replay", i), entries[i].t,
        [&engine, injector, cmd = entries[i].cmd] {
          apply(cmd, engine, *injector);
        },
        order);
  }
}

}  // namespace sa::ckpt

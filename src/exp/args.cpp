#include "exp/args.hpp"

#include <charconv>
#include <cstdint>

namespace sa::exp {
namespace {

/// Parses a non-negative integer; returns false on garbage or overflow.
bool parse_uint(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_nonneg(std::string_view text, double& out) {
  if (text.empty()) return false;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end && out >= 0.0;
}

StandardArgs::Flag path_flag(std::string name, std::string help,
                             std::string Options::* field) {
  return {std::move(name),
          "",
          "PATH",
          std::move(help),
          [field](std::string_view value, Options& out) -> std::string {
            if (value.empty()) return "expects an output path";
            out.*field = std::string(value);
            return {};
          }};
}

}  // namespace

StandardArgs::StandardArgs() {
  add({"--help",
       "-h",
       "",
       "this text",
       [](std::string_view, Options& out) -> std::string {
         out.help = true;
         return {};
       }});
  add({"--jobs",
       "-j",
       "N",
       "worker threads for the seed x variant grid\n"
       "(default: all hardware threads; results are\n"
       "bitwise-identical for every N)",
       [](std::string_view value, Options& out) -> std::string {
         std::uint64_t n = 0;
         if (!parse_uint(value, n) || n == 0 || n > 4096) {
           return "expects an integer in [1, 4096]";
         }
         out.jobs = static_cast<unsigned>(n);
         return {};
       }});
  add({"--seeds",
       "",
       "K",
       "run K seeds instead of the experiment default\n"
       "(first K of the canonical list, then derived)",
       [](std::string_view value, Options& out) -> std::string {
         std::uint64_t n = 0;
         if (!parse_uint(value, n) || n == 0 || n > 100000) {
           return "expects an integer in [1, 100000]";
         }
         out.seeds = static_cast<std::size_t>(n);
         return {};
       }});
  add({"--shards",
       "",
       "N",
       "partition each scenario world across N engine\n"
       "shards (sa::shard). --shards 1 is the legacy\n"
       "single-engine path; N > 1 runs the shards on a\n"
       "worker pool with a byte-identical trajectory,\n"
       "pins --jobs to 1 and rejects --checkpoint/--resume",
       [](std::string_view value, Options& out) -> std::string {
         std::uint64_t n = 0;
         if (!parse_uint(value, n) || n == 0 || n > 4096) {
           return "expects an integer in [1, 4096]";
         }
         out.shards = static_cast<unsigned>(n);
         return {};
       }});
  add(path_flag("--json",
                "also write a BENCH_<exp>.json document with\n"
                "per-seed raws, aggregates, wall-clock and git rev",
                &Options::json));
  add(path_flag("--trace",
                "write a Chrome trace-event JSON (open it at\n"
                "ui.perfetto.dev) of one designated cell: last\n"
                "variant, first seed. Sim-time timestamps, so the\n"
                "file is bitwise-identical for every --jobs N",
                &Options::trace));
  add(path_flag("--metrics",
                "write the traced cell's self-profiling metrics\n"
                "snapshots as JSONL (wall-clock timers: values\n"
                "vary run to run)",
                &Options::metrics));
  add({"--fault-plan",
       "",
       "SPEC",
       "overlay a fault plan on fault-aware experiments\n"
       "(\"kind:rate=R,dur=D,...;seed=N\"; see\n"
       "sa::fault::FaultPlan::parse)",
       [](std::string_view value, Options& out) -> std::string {
         if (value.empty()) {
           return "expects a plan spec (\"kind:key=value,...;...\")";
         }
         out.fault_plan = std::string(value);
         return {};
       }});
  add({"--scenario",
       "",
       "SPEC",
       "overlay a scenario spec on scenario-driven\n"
       "experiments (\"section:key=value,...;...\"; see\n"
       "sa::gen::ScenarioSpec::parse)",
       [](std::string_view value, Options& out) -> std::string {
         if (value.empty()) {
           return "expects a scenario spec (\"section:key=value,...\")";
         }
         out.scenario = std::string(value);
         return {};
       }});
  add({"--serve",
       "",
       "PORT",
       "expose the designated cell live over HTTP on\n"
       "127.0.0.1:PORT (0 = ephemeral, printed at start):\n"
       "/metrics (Prometheus), /status (JSON), /events\n"
       "(SSE telemetry), /control (pause/resume/inject)",
       [](std::string_view value, Options& out) -> std::string {
         std::uint64_t n = 0;
         if (!parse_uint(value, n) || n > 65535) {
           return "expects a port in [0, 65535]";
         }
         out.serve_port = static_cast<int>(n);
         return {};
       }});
  add({"--serve-bind",
       "",
       "ADDR",
       "bind the --serve endpoint to ADDR instead of\n"
       "127.0.0.1 (e.g. 0.0.0.0 so a load generator on\n"
       "another host can reach it; pair with --serve-token)",
       [](std::string_view value, Options& out) -> std::string {
         if (value.empty()) return "expects an IPv4 address";
         out.serve_bind = std::string(value);
         return {};
       }});
  add({"--serve-token",
       "",
       "TOKEN",
       "require TOKEN on POST /control (form field token=\n"
       "or Authorization: Bearer; constant-time compare,\n"
       "401 on mismatch)",
       [](std::string_view value, Options& out) -> std::string {
         if (value.empty()) return "expects a non-empty token";
         out.serve_token = std::string(value);
         return {};
       }});
  add({"--serve-linger",
       "",
       "SEC",
       "keep the --serve endpoint up SEC seconds after the\n"
       "run finishes (POST /control cmd=shutdown ends it\n"
       "early)",
       [](std::string_view value, Options& out) -> std::string {
         double s = 0.0;
         if (!parse_nonneg(value, s) || s > 86400.0) {
           return "expects seconds in [0, 86400]";
         }
         out.serve_linger = s;
         return {};
       }});
  add(path_flag("--checkpoint",
                "periodically checkpoint completed grid cells to\n"
                "PATH (CRC-framed, atomically written; previous\n"
                "file rotates to PATH.prev). SIGTERM/SIGINT save a\n"
                "final checkpoint before exiting; --resume PATH\n"
                "picks the run back up",
                &Options::checkpoint));
  add({"--checkpoint-every",
       "",
       "SEC",
       "wall-clock seconds between periodic checkpoint\n"
       "saves (default 30; a final save always happens at\n"
       "exit)",
       [](std::string_view value, Options& out) -> std::string {
         double s = 0.0;
         if (!parse_nonneg(value, s) || s <= 0.0 || s > 86400.0) {
           return "expects seconds in (0, 86400]";
         }
         out.checkpoint_every = s;
         return {};
       }});
  add(path_flag("--resume",
                "resume from a checkpoint written by --checkpoint:\n"
                "completed cells load instead of re-running (the\n"
                "final document byte-matches an uninterrupted run,\n"
                "wall-clock fields aside). Falls back to PATH.prev\n"
                "when PATH is corrupt; a grid-shape mismatch or an\n"
                "unreadable checkpoint exits 2",
                &Options::resume));
  add({"--control-journal",
       "",
       "SPEC",
       "replay a recorded control stream into cells that\n"
       "support it (\"T cmd=inject&kind=K&unit=U&mag=M&\n"
       "dur=D; T ...\"; sim-time-stamped, applied at\n"
       "the recorded instants). A resumed run appends the\n"
       "journal recorded live before the interruption",
       [](std::string_view value, Options& out) -> std::string {
         if (value.empty()) {
           return "expects a journal spec (\"T cmd=...&key=value; ...\")";
         }
         out.control_journal = std::string(value);
         return {};
       }});
}

std::string StandardArgs::parse(int argc, const char* const* argv,
                                Options& out) const {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string_view value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }

    const Flag* match = nullptr;
    for (const Flag& f : flags_) {
      if (arg == f.name || (!f.alias.empty() && arg == f.alias)) {
        match = &f;
        break;
      }
    }
    if (match == nullptr) return "unknown argument: " + std::string(argv[i]);

    if (match->metavar.empty()) {
      if (has_value) {
        return std::string(arg) + " takes no value";
      }
    } else if (!has_value) {
      if (i + 1 >= argc) {
        return std::string(arg) + " expects " +
               (match->metavar == "PATH" ? "an output path"
                                         : "a value (" + match->metavar + ")");
      }
      value = argv[++i];
    }
    if (const std::string err = match->apply(value, out); !err.empty()) {
      return std::string(arg) + " " + err;
    }
  }
  if (out.shards > 1) {
    if (!out.checkpoint.empty() || !out.resume.empty()) {
      return "--shards > 1 cannot be combined with --checkpoint/--resume "
             "(sharded worlds are restored by replay, not snapshot)";
    }
    // The shard workers are the parallelism; grid workers on top would
    // oversubscribe and the results are --jobs-invariant anyway.
    out.jobs = 1;
  }
  return {};
}

std::string StandardArgs::usage(std::string_view program) const {
  std::string u;
  u += "usage: ";
  u += program;
  for (const Flag& f : flags_) {
    if (f.name == "--help") continue;
    u += " [";
    u += f.name;
    if (!f.metavar.empty()) {
      u += ' ';
      u += f.metavar;
    }
    u += ']';
  }
  u += '\n';
  for (const Flag& f : flags_) {
    // Left column: "  --flag M, -a M" padded to a fixed width.
    std::string left = "  " + f.name;
    if (!f.metavar.empty()) left += " " + f.metavar;
    if (!f.alias.empty()) {
      left += ", " + f.alias;
      if (!f.metavar.empty()) left += " " + f.metavar;
    }
    constexpr std::size_t kCol = 20;
    if (left.size() + 2 <= kCol) {
      left.append(kCol - left.size(), ' ');
    } else {
      left += "\n" + std::string(kCol, ' ');
    }
    u += left;
    // Body: first line after the column, continuations indented to it.
    std::string_view help = f.help;
    bool first = true;
    while (!help.empty()) {
      std::size_t nl = help.find('\n');
      const std::string_view line =
          nl == std::string_view::npos ? help : help.substr(0, nl);
      if (!first) u += std::string(kCol, ' ');
      first = false;
      u += line;
      u += '\n';
      if (nl == std::string_view::npos) break;
      help.remove_prefix(nl + 1);
    }
  }
  return u;
}

namespace {
const StandardArgs& standard_args() {
  static const StandardArgs table;
  return table;
}
}  // namespace

std::string parse_args(int argc, const char* const* argv, Options& out) {
  return standard_args().parse(argc, argv, out);
}

std::string usage(std::string_view program) {
  return standard_args().usage(program);
}

}  // namespace sa::exp

// Control commands: their grammar, the one step that applies them, and
// their record/replay journal (sa::ckpt).
//
// The only state-mutating POST /control command is `inject` (pause,
// resume and shutdown mutate nothing the sim reads; checkpoint only reads
// state). The serve bridge parses it with ControlCommand::parse_form,
// applies it with apply() at a mailbox drain, and appends it here with the
// sim-time stamp at which it landed. Replaying the journal against a
// rebuilt world schedules the same apply() at each command's original
// (t, order), so a served run — whose perturbations arrived from live
// HTTP clients — becomes reproducible offline: rebuild, replay,
// byte-identical trajectory. Live and replayed commands share one parser
// and one apply step, so the journal cannot drift from what the live path
// did.
//
// Entries have three interchangeable representations:
//   * structured (ControlCommand) — what record/replay operate on,
//   * a canonical form body ("cmd=inject&kind=…") — the same syntax the
//     HTTP handler accepts, used in the human-editable --control-journal
//     spec ("T body; T body"),
//   * a checkpoint section (save/load via Buffer/Cursor) with exact f64
//     bit patterns.
#pragma once

#include <cstddef>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/format.hpp"
#include "fault/fault.hpp"
#include "sim/engine.hpp"

namespace sa::ckpt {

/// Engine order of every control event — the serve bridge's publish and
/// mailbox drain, and every replayed journal entry: far above exchange (2)
/// so control lands after everything else scheduled at the same instant,
/// and a replayed command lands exactly where its drain did.
inline constexpr int kControlOrder = 1000;

/// Decoded value of `key` in an x-www-form-urlencoded body ("k=v&k=v";
/// '+' is a space, %XX a byte). "" if the key is absent or its value
/// carries a truncated or non-hex escape.
[[nodiscard]] std::string form_get(std::string_view body,
                                   std::string_view key);

/// One `cmd=inject` control command, structurally: a fault of `fault_kind`
/// on `unit` with `magnitude`, for `duration` sim-seconds.
struct ControlCommand {
  fault::FaultKind fault_kind = fault::FaultKind::LinkLoss;
  std::size_t unit = 0;
  double magnitude = 1.0;
  double duration = 0.0;

  /// Canonical x-www-form-urlencoded body (doubles printed round-trip).
  [[nodiscard]] std::string to_form() const;
  /// Parses a canonical/handler-style form body. An absent unit/mag/dur
  /// keeps its default; kMalformed with a human-readable reason on any cmd
  /// but inject, a bad kind, or a present number that is malformed,
  /// non-finite or out of range.
  [[nodiscard]] static Status parse_form(std::string_view body,
                                         ControlCommand& out);
};

/// Applies `cmd` to the world now (sim thread, at a step boundary). The
/// serve bridge's mailbox drain and schedule_replay() both call this, so a
/// replayed command does exactly what the live one did.
void apply(const ControlCommand& cmd, sim::Engine& engine,
           fault::Injector& injector);

struct JournalEntry {
  double t = 0.0;
  ControlCommand cmd;
};

/// Thread-safe append log of applied control commands. The sim thread
/// records at drain time; the harness's checkpoint supervisor snapshots
/// concurrently.
class ControlJournal {
 public:
  void record(double t, ControlCommand cmd) {
    const std::scoped_lock lk(mu_);
    entries_.push_back(JournalEntry{t, std::move(cmd)});
  }
  [[nodiscard]] std::vector<JournalEntry> snapshot() const {
    const std::scoped_lock lk(mu_);
    return entries_;
  }
  void set_entries(std::vector<JournalEntry> entries) {
    const std::scoped_lock lk(mu_);
    entries_ = std::move(entries);
  }
  [[nodiscard]] std::size_t size() const {
    const std::scoped_lock lk(mu_);
    return entries_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<JournalEntry> entries_;
};

/// Parses a journal spec: entries separated by ';', each "T form-body",
/// e.g. "0.7 cmd=inject&kind=link-loss&unit=1&mag=1&dur=3". Whitespace
/// around entries is ignored; empty items are skipped.
[[nodiscard]] Status parse_journal_spec(std::string_view spec,
                                        std::vector<JournalEntry>& out);

/// Checkpoint-section (de)serialization.
void save_journal(const std::vector<JournalEntry>& in, Buffer& out);
[[nodiscard]] Status load_journal(Cursor& in, std::vector<JournalEntry>& out);

/// Schedules apply() of every entry on `engine` at its recorded sim time
/// and kControlOrder, so replayed commands land after everything else at
/// the same instant — exactly where a drained mailbox command landed
/// originally. A null `injector` skips every entry, as the bridge refuses
/// inject without one.
void schedule_replay(sim::Engine& engine,
                     std::span<const JournalEntry> entries,
                     fault::Injector* injector);

}  // namespace sa::ckpt

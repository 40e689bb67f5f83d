// Control-stream record/replay (ctest -L ckpt).
//
// The journal has three interchangeable representations — structured
// ControlCommand, canonical form body, checkpoint section — and all three
// must round-trip bit-exactly (doubles via %.17g). Anything but a
// well-formed inject is a typed kMalformed. Replaying a journal
// against a rebuilt world must schedule each command at its original
// (t, order) and produce the same injector trajectory a live operator
// produced; replay events are themselves tagged so a replaying world can
// be checkpointed again.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/journal.hpp"
#include "ckpt/state.hpp"
#include "fault/fault.hpp"
#include "sim/engine.hpp"

namespace sa::ckpt {
namespace {

ControlCommand make_inject() {
  ControlCommand cmd;
  cmd.fault_kind = fault::FaultKind::LinkLoss;
  cmd.unit = 3;
  cmd.magnitude = 0.1 + 0.2;  // not exactly representable as a literal
  cmd.duration = 4.5;
  return cmd;
}

ControlCommand make_crash() {
  ControlCommand cmd;
  cmd.fault_kind = fault::FaultKind::NodeCrash;
  cmd.unit = 0;
  cmd.magnitude = -0.25;
  cmd.duration = 1e-300;  // tiny but finite: still exact
  return cmd;
}

TEST(Journal, FormRoundTripsBothKinds) {
  // Two fault kinds, with doubles that only %.17g renders exactly.
  for (const ControlCommand& cmd : {make_inject(), make_crash()}) {
    const std::string form = cmd.to_form();
    ControlCommand back;
    ASSERT_TRUE(ControlCommand::parse_form(form, back).ok()) << form;
    EXPECT_EQ(back.fault_kind, cmd.fault_kind);
    EXPECT_EQ(back.unit, cmd.unit);
    EXPECT_EQ(back.magnitude, cmd.magnitude);  // %.17g: exact
    EXPECT_EQ(back.duration, cmd.duration);
    // Canonical: re-rendering is a fixed point.
    EXPECT_EQ(back.to_form(), form);
  }
  // Absent numbers keep their defaults.
  ControlCommand dflt;
  ASSERT_TRUE(ControlCommand::parse_form("cmd=inject&kind=link-loss", dflt)
                  .ok());
  EXPECT_EQ(dflt.to_form(), ControlCommand{}.to_form());
}

TEST(Journal, MalformedFormsAreTyped) {
  ControlCommand out;
  EXPECT_EQ(ControlCommand::parse_form("", out).code, Errc::kMalformed);
  EXPECT_EQ(ControlCommand::parse_form("cmd=pause", out).code,
            Errc::kMalformed);
  EXPECT_EQ(
      ControlCommand::parse_form("cmd=inject&kind=not-a-fault", out).code,
      Errc::kMalformed);
  // Inject is the only journaled command; histogram is not one.
  EXPECT_EQ(ControlCommand::parse_form(
                "cmd=histogram&category=x&lo=0&hi=1&bins=4", out)
                .code,
            Errc::kMalformed);
  // Present numbers must be well-formed, finite and in range.
  for (const char* field :
       {"unit=abc", "unit=-1", "unit=inf", "unit=nan",
        "unit=18446744073709551616", "unit=1e30", "mag=nan", "mag=inf",
        "mag=", "mag=1x", "dur=-inf", "dur=1e999", "dur=%zz"}) {
    const std::string body = std::string("cmd=inject&kind=link-loss&") + field;
    EXPECT_EQ(ControlCommand::parse_form(body, out).code, Errc::kMalformed)
        << body;
  }
}

TEST(Journal, SpecRoundTripsAndRejectsGarbage) {
  std::vector<JournalEntry> in;
  in.push_back(JournalEntry{0.7, make_inject()});
  in.push_back(JournalEntry{123.456789012345678, make_crash()});

  const std::string spec = journal_spec(in);
  std::vector<JournalEntry> back;
  ASSERT_TRUE(parse_journal_spec(spec, back).ok()) << spec;
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].t, in[0].t);
  EXPECT_EQ(back[1].t, in[1].t);  // %.17g preserves every bit
  EXPECT_EQ(back[0].cmd.to_form(), in[0].cmd.to_form());
  EXPECT_EQ(back[1].cmd.to_form(), in[1].cmd.to_form());
  EXPECT_EQ(journal_spec(back), spec);

  // Hand-written specs: whitespace and empty items are fine.
  ASSERT_TRUE(parse_journal_spec(
                  " ; 1.5 cmd=inject&kind=link-loss&unit=0&mag=1&dur=2 ;;",
                  back)
                  .ok());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].t, 1.5);

  // Garbage: typed errors, never a partial parse.
  EXPECT_EQ(parse_journal_spec("no-timestamp-here", back).code,
            Errc::kMalformed);
  EXPECT_EQ(parse_journal_spec("xyz cmd=inject&kind=link-loss", back).code,
            Errc::kMalformed);
  EXPECT_EQ(parse_journal_spec("-1 cmd=inject&kind=link-loss", back).code,
            Errc::kMalformed);
  EXPECT_EQ(parse_journal_spec("2.0 cmd=unknown", back).code,
            Errc::kMalformed);
  EXPECT_EQ(parse_journal_spec("inf cmd=inject&kind=link-loss", back).code,
            Errc::kMalformed);
  EXPECT_EQ(parse_journal_spec(
                "1.0 cmd=inject&kind=link-loss; "
                "2.0 cmd=histogram&category=x&lo=0&hi=1&bins=4",
                back)
                .code,
            Errc::kMalformed);
}

TEST(Journal, CheckpointSectionRoundTrips) {
  std::vector<JournalEntry> in;
  in.push_back(JournalEntry{3.25, make_inject()});
  in.push_back(JournalEntry{9.75, make_crash()});

  Buffer b;
  save_journal(in, b);
  Cursor c(b.data());
  std::vector<JournalEntry> back;
  ASSERT_TRUE(load_journal(c, back).ok());
  ASSERT_TRUE(c.at_end());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].t, 3.25);
  EXPECT_EQ(back[1].cmd.to_form(), in[1].cmd.to_form());

  // Re-save byte-matches (the attestation property).
  Buffer again;
  save_journal(back, again);
  EXPECT_EQ(again.data(), b.data());

  // Truncated payload: typed, not trusted.
  Cursor short_c(std::string_view(b.data()).substr(0, b.data().size() - 3));
  EXPECT_EQ(load_journal(short_c, back).code, Errc::kMalformed);

  // A section holding any other command is malformed, not skipped.
  Buffer old;
  old.u64(1);
  old.f64(2.0);
  old.str("cmd=histogram&category=lat&lo=0&hi=1&bins=8");
  Cursor old_c(old.data());
  EXPECT_EQ(load_journal(old_c, back).code, Errc::kMalformed);
}

TEST(Journal, ControlJournalSnapshotsConcurrentlyAppendedEntries) {
  ControlJournal j;
  EXPECT_EQ(j.size(), 0u);
  j.record(1.0, make_inject());
  j.record(2.0, make_crash());
  const auto snap = j.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].t, 1.0);
  EXPECT_EQ(snap[1].cmd.fault_kind, fault::FaultKind::NodeCrash);

  // Pre-seeding a resumed run keeps later snapshots cumulative.
  ControlJournal resumed;
  resumed.set_entries(snap);
  resumed.record(3.0, make_inject());
  EXPECT_EQ(resumed.size(), 3u);
  EXPECT_EQ(resumed.snapshot()[2].t, 3.0);
}

/// A begin/end counting surface (as in injector_test).
struct CountingSurface {
  std::vector<int> depth;
  explicit CountingSurface(std::size_t units) : depth(units, 0) {}
  fault::Injector::Surface as_surface() {
    fault::Injector::Surface s;
    s.kind = fault::FaultKind::LinkLoss;
    s.name = "test.link";
    s.units = depth.size();
    s.begin = [this](std::size_t unit, double) { ++depth[unit]; };
    s.end = [this](std::size_t unit, double) { --depth[unit]; };
    return s;
  }
};

TEST(Journal, ReplayMatchesLiveInjectionTrajectory) {
  std::vector<JournalEntry> entries;
  {
    JournalEntry e;
    e.t = 5.0;
    e.cmd = make_inject();
    e.cmd.unit = 1;
    e.cmd.duration = 4.0;
    entries.push_back(e);
  }

  // Live: an operator fires inject_now at t=5 (as the bridge's drained
  // mailbox does, at kControlOrder).
  sim::Engine live;
  fault::Injector live_inj;
  CountingSurface live_surface(4);
  live_inj.add_surface(live_surface.as_surface());
  const ControlCommand cmd = entries[0].cmd;
  live.at_tagged(
      sim::event_tag("test.live"), 5.0,
      [&live, &live_inj, cmd] {
        live_inj.inject_now(live, cmd.fault_kind, cmd.unit, cmd.magnitude,
                            cmd.duration);
      },
      kControlOrder);
  live.run_until(20.0);

  // Replay: the recorded journal against a rebuilt world.
  sim::Engine replay;
  fault::Injector replay_inj;
  CountingSurface replay_surface(4);
  replay_inj.add_surface(replay_surface.as_surface());
  schedule_replay(replay, entries, &replay_inj);
  replay.run_until(20.0);

  const auto got = replay_inj.records();
  const auto want = live_inj.records();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(want.empty());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].t, want[i].t) << i;
    EXPECT_EQ(got[i].unit, want[i].unit) << i;
    EXPECT_EQ(got[i].until, want[i].until) << i;
    EXPECT_EQ(got[i].begin, want[i].begin) << i;
  }
  EXPECT_EQ(replay_inj.injected(), 1u);
  EXPECT_EQ(replay_inj.restored(), 1u);
  EXPECT_EQ(replay_surface.depth[1], 0);  // fault began and ended
}

TEST(Journal, ReplayEventsAreTaggedSoTheWorldStaysCheckpointable) {
  std::vector<JournalEntry> entries;
  entries.push_back(JournalEntry{8.0, make_inject()});
  entries.push_back(JournalEntry{9.0, make_inject()});
  entries[1].cmd.unit = 2;

  sim::Engine e;
  fault::Injector inj;
  CountingSurface surface(4);
  inj.add_surface(surface.as_surface());
  schedule_replay(e, entries, &inj);

  // Pending replay events export cleanly (they are tagged by position).
  Buffer snap;
  EXPECT_TRUE(save_engine(e, snap).ok());

  e.run_until(10.0);
  EXPECT_EQ(inj.injected(), 2u);  // both commands applied

  // Without an injector every entry is skipped, as the bridge refuses
  // inject without one.
  sim::Engine bare;
  schedule_replay(bare, entries, nullptr);
  Buffer empty_snap;
  EXPECT_TRUE(save_engine(bare, empty_snap).ok());
}

}  // namespace
}  // namespace sa::ckpt

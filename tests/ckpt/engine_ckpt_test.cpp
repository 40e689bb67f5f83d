// Engine timeline export (the checkpoint seam, ctest -L ckpt).
//
// save_engine's bytes are the unit contract of the attestation. An engine
// replayed by the same calls to the same time exports the same bytes and
// continues on the same trajectory; changing any pending event's t,
// order, tag, payload, kind or period changes the bytes, so a drifted
// replay can never attest. Untagged events refuse to export: the image
// would have no identity for them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/state.hpp"
#include "sim/engine.hpp"

namespace sa::ckpt {
namespace {

constexpr sim::EventTag kTick = sim::event_tag("test.tick");
constexpr sim::EventTag kRetry = sim::event_tag("test.retry");
constexpr sim::EventTag kLate = sim::event_tag("test.late");

std::string stamp(const char* what, double t) {
  return std::string(what) + "@" + std::to_string(t);
}

/// Wires the test world: a periodic tick that (once, at t == 3) schedules
/// a payload-carrying one-shot, plus a static far-future one-shot.
void wire(sim::Engine& e, std::vector<std::string>& log) {
  e.every_tagged(kTick, 1.0, [&e, &log] {
    log.push_back(stamp("tick", e.now()));
    if (e.now() == 3.0) {
      std::string payload = "attempt-1";
      e.in_tagged(
          kRetry, 2.5, [&log, &e, payload] { log.push_back(stamp(("retry:" + payload).c_str(), e.now())); },
          0, payload);
    }
    return true;
  });
  e.at_tagged(kLate, 7.5, [&log, &e] { log.push_back(stamp("late", e.now())); });
}

Buffer saved(const sim::Engine& e) {
  Buffer b;
  EXPECT_TRUE(save_engine(e, b).ok());
  return b;
}

TEST(EngineCkpt, RestoredTimelineReplaysByteIdentically) {
  // Reference: run to T=4.2 (the payload-carrying retry is pending),
  // snapshot, continue to 10.
  sim::Engine a;
  std::vector<std::string> log_a;
  wire(a, log_a);
  a.run_until(4.2);
  const std::size_t prefix = log_a.size();
  const Buffer snap = saved(a);
  a.run_until(10.0);
  const std::vector<std::string> expected(log_a.begin() + prefix, log_a.end());
  ASSERT_FALSE(expected.empty());

  // Restore by replay: the same calls, run to the same T.
  sim::Engine b;
  std::vector<std::string> log_b;
  wire(b, log_b);
  b.run_until(4.2);
  EXPECT_EQ(b.now(), 4.2);

  // Attestation before continuing: the replayed engine exports the bytes
  // the checkpoint holds.
  EXPECT_EQ(saved(b).data(), snap.data());

  b.run_until(10.0);
  EXPECT_EQ(std::vector<std::string>(log_b.begin() + prefix, log_b.end()),
            expected);
}

TEST(EngineCkpt, UntaggedPendingEventRefusesExport) {
  sim::Engine e;
  e.at(1.0, [] {});
  Buffer out;
  const Status st = save_engine(e, out);
  EXPECT_EQ(st.code, Errc::kUntaggedEvent);
  EXPECT_NE(st.detail.find("untagged"), std::string::npos);
}

/// Which pending event property build() perturbs.
enum class Drift { kNone, kT, kOrder, kTag, kPayload, kKind, kPeriod };

/// A periodic stream at order -1 plus two one-shots whose payloads hold
/// embedded NULs, all pending at t = 0.
void build(sim::Engine& e, Drift d) {
  if (d == Drift::kKind) {
    e.at_tagged(kTick, 2.5, [] {}, -1);  // the same t, but a one-shot
  } else {
    e.every_tagged(kTick, d == Drift::kPeriod ? 2.0 : 2.5,
                   [] { return true; }, -1);
  }
  e.at_tagged(d == Drift::kTag ? sim::event_tag("test.late", 1) : kLate,
              d == Drift::kT ? 7.25 : 7.5, [] {},
              d == Drift::kOrder ? 1 : 0);
  e.at_tagged(kRetry, 5.5, [] {}, 2,
              d == Drift::kPayload ? std::string("opaque\0b", 8)
                                   : std::string("opaque\0a", 8));
}

TEST(EngineCkpt, SaveEngineBytesAreCanonical) {
  sim::Engine a, b;
  build(a, Drift::kNone);
  build(b, Drift::kNone);
  const Buffer base = saved(a);
  EXPECT_EQ(saved(b).data(), base.data());

  for (const Drift d : {Drift::kT, Drift::kOrder, Drift::kTag,
                        Drift::kPayload, Drift::kKind, Drift::kPeriod}) {
    SCOPED_TRACE(static_cast<int>(d));
    sim::Engine drifted;
    build(drifted, d);
    EXPECT_NE(saved(drifted).data(), base.data());
  }
}

}  // namespace
}  // namespace sa::ckpt

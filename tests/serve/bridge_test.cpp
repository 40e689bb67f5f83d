// SimBridge semantics: snapshot publishing at step boundaries, the control
// mailbox (commands land between engine events only), pause/resume across
// the seam, SSE delivery, and shutdown observability.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/journal.hpp"
#include "core/agent.hpp"
#include "fault/adapters.hpp"
#include "fault/fault.hpp"
#include "multicore/platform.hpp"
#include "serve/bridge.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "test_client.hpp"

namespace {

using namespace sa;
using namespace sa::serve;
namespace client = sa::serve::testing;

Server::Options quick_opts() {
  Server::Options opts;
  opts.workers = 2;
  opts.read_timeout_ms = 500;
  return opts;
}

/// Polls GET /status until `needle` appears (or ~2.5 s elapse).
std::string await_status(unsigned short port, const std::string& needle) {
  std::string body;
  for (int i = 0; i < 250; ++i) {
    body = client::body_of(client::http_get(port, "/status"));
    if (body.find(needle) != std::string::npos) return body;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return body;
}

TEST(SimBridge, PublishesStatusAndMetricsSnapshots) {
  sim::Engine engine;
  sim::MetricsRegistry metrics;
  const auto c = metrics.counter("bridge.test");
  sim::TelemetryBus bus;
  const auto subj = bus.intern_subject("unit.test");
  core::SelfAwareAgent agent("probe", {});

  SimBridge bridge;
  bridge.set_metrics(&metrics);
  bridge.set_telemetry(&bus);
  bridge.add_agent(&agent);

  engine.every(0.05, [&] {
    metrics.add(c);
    bus.record(engine.now(), sim::TelemetryBus::kObservation, subj, 1.0);
    return true;
  });
  bridge.attach(engine);

  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();

  engine.run_until(1.0);

  const std::string status =
      client::body_of(client::http_get(server.port(), "/status"));
  EXPECT_NE(status.find("\"t\":1"), std::string::npos) << status;
  EXPECT_NE(status.find("\"id\":\"probe\""), std::string::npos);
  EXPECT_NE(status.find("\"engine\":{\"executed\":"), std::string::npos);
  EXPECT_NE(status.find("\"paused\":false"), std::string::npos);

  const std::string page =
      client::body_of(client::http_get(server.port(), "/metrics"));
  EXPECT_NE(page.find("sa_bridge_test 20"), std::string::npos) << page;
  EXPECT_NE(page.find("sa_sim_time_seconds 1"), std::string::npos);
  EXPECT_NE(page.find("sa_bus_events_total{category=\"observation\"} 20"),
            std::string::npos);
  EXPECT_NE(page.find("sa_serve_requests_total"), std::string::npos);

  EXPECT_EQ(client::body_of(client::http_get(server.port(), "/healthz")),
            "ok\n");
  server.stop();
}

TEST(SimBridge, ShardSourceSurfacesInMetricsAndStatus) {
  sim::Engine engine;
  SimBridge bridge;
  // Stands in for shard::ShardedWorld::shard_events() — the bridge calls
  // the source on the sim thread at every publish boundary.
  bridge.set_shard_source([] {
    ShardSnapshot snap;
    snap.events = {40, 2};  // one shard + the coordinator
    snap.lag_seconds = 0.125;
    return snap;
  });
  bridge.attach(engine);

  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();

  engine.run_until(1.0);

  const std::string page =
      client::body_of(client::http_get(server.port(), "/metrics"));
  EXPECT_NE(page.find("sa_shard_events_total{shard=\"0\"} 40"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("sa_shard_events_total{shard=\"coordinator\"} 2"),
            std::string::npos);
  EXPECT_NE(page.find("sa_shard_lag_seconds 0.125"), std::string::npos);

  const std::string status =
      client::body_of(client::http_get(server.port(), "/status"));
  EXPECT_NE(status.find("\"shards\":{\"events\":[40,2],\"lag_seconds\":0.125"),
            std::string::npos)
      << status;
  server.stop();
}

TEST(SimBridge, WithoutShardSourceNoShardSeries) {
  sim::Engine engine;
  SimBridge bridge;
  bridge.attach(engine);
  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();
  engine.run_until(0.5);
  EXPECT_EQ(client::body_of(client::http_get(server.port(), "/metrics"))
                .find("sa_shard"),
            std::string::npos);
  EXPECT_EQ(client::body_of(client::http_get(server.port(), "/status"))
                .find("\"shards\""),
            std::string::npos);
  server.stop();
}

TEST(SimBridge, StatusBeforeFirstPublishSaysSo) {
  SimBridge bridge;
  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();
  const std::string body =
      client::body_of(client::http_get(server.port(), "/status"));
  EXPECT_NE(body.find("\"published\":false"), std::string::npos);
  server.stop();
}

TEST(SimBridge, InjectCommandLandsAtTheNextStepBoundaryOnly) {
  sim::Engine engine;
  multicore::Platform platform(multicore::PlatformConfig::big_little(2, 2),
                               7);
  fault::Injector inj;
  fault::bind_platform(inj, platform);

  SimBridge bridge;
  bridge.set_injector(&inj);
  bridge.attach(engine);

  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();

  const std::string resp = client::http_post(
      server.port(), "/control", "cmd=inject&kind=core-fail&unit=1&dur=5");
  EXPECT_EQ(client::status_of(resp), 202);

  // Queued, not applied: the mailbox drains only on the sim thread at the
  // next publish event.
  EXPECT_EQ(inj.injected(), 0u);
  engine.run_until(0.2);
  EXPECT_EQ(inj.injected(), 1u);

  const std::string status = await_status(server.port(), "\"faults\"");
  EXPECT_NE(status.find("\"commands_applied\":1"), std::string::npos)
      << status;
  EXPECT_NE(status.find("\"kind\":\"core-fail\""), std::string::npos);
  server.stop();
}

TEST(SimBridge, InvalidControlCommandsAreRejected) {
  sim::Engine engine;
  multicore::Platform platform(multicore::PlatformConfig::big_little(2, 2),
                               7);
  fault::Injector inj;
  fault::bind_platform(inj, platform);
  SimBridge bare;  // no injector wired; control needs no engine
  SimBridge bridge;
  bridge.set_injector(&inj);
  bridge.attach(engine);
  Server bare_server(quick_opts());
  Server server(quick_opts());
  bare.install(bare_server);
  bridge.install(server);
  ASSERT_TRUE(bare_server.start()) << bare_server.error();
  ASSERT_TRUE(server.start()) << server.error();

  EXPECT_EQ(client::status_of(client::http_post(bare_server.port(), "/control",
                                                "cmd=inject&kind=core-fail")),
            503);
  // Unknown cmds (histogram among them), bad kinds, and numbers that are
  // malformed, non-finite or out of range all answer 400.
  for (const char* body :
       {"cmd=warp-speed", "cmd=histogram&category=x&lo=0&hi=1&bins=4",
        "cmd=inject&kind=not-a-fault", "cmd=inject&kind=core-fail&unit=abc",
        "cmd=inject&kind=core-fail&unit=-1",
        "cmd=inject&kind=core-fail&unit=inf",
        "cmd=inject&kind=core-fail&unit=nan",
        "cmd=inject&kind=core-fail&unit=18446744073709551616",
        "cmd=inject&kind=core-fail&unit=1e30",
        "cmd=inject&kind=core-fail&mag=nan",
        "cmd=inject&kind=core-fail&mag=inf",
        "cmd=inject&kind=core-fail&mag=", "cmd=inject&kind=core-fail&dur=-inf",
        "cmd=inject&kind=core-fail&dur=1e999",
        "cmd=inject&kind=core-fail&dur=%zz"}) {
    EXPECT_EQ(client::status_of(
                  client::http_post(server.port(), "/control", body)),
              400)
        << body;
  }
  engine.run_until(0.2);
  EXPECT_EQ(inj.injected(), 0u);  // nothing rejected was queued
  bare_server.stop();
  server.stop();
}

TEST(SimBridge, ControlFormValuesArePercentDecoded) {
  sim::Engine engine;
  multicore::Platform platform(multicore::PlatformConfig::big_little(2, 2),
                               7);
  fault::Injector inj;
  fault::bind_platform(inj, platform);
  SimBridge bridge;
  bridge.set_injector(&inj);
  bridge.attach(engine);
  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();

  // "core%2Dfail" decodes to "core-fail" — escaped values are decoded
  // before they are parsed.
  EXPECT_EQ(client::status_of(client::http_post(
                server.port(), "/control",
                "cmd=inject&kind=core%2Dfail&unit=1&dur=5")),
            202);
  engine.run_until(0.2);
  ASSERT_EQ(inj.injected(), 1u);
  EXPECT_EQ(inj.records().front().kind, fault::FaultKind::CoreFail);

  // A malformed escape never reaches the injector as a mangled kind.
  EXPECT_EQ(client::status_of(client::http_post(
                server.port(), "/control", "cmd=inject&kind=%zz&unit=1")),
            400);
  server.stop();
}

TEST(SimBridge, PauseBlocksTheSimThreadAndResumeReleasesIt) {
  sim::Engine engine;
  SimBridge bridge;
  bridge.attach(engine);

  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();

  EXPECT_EQ(client::status_of(
                client::http_post(server.port(), "/control", "cmd=pause")),
            202);
  EXPECT_TRUE(bridge.paused());

  // The next step-boundary drain publishes the paused status, then blocks
  // the sim thread until resume. Emulate the sim thread directly — the
  // attached publish event calls exactly this.
  std::atomic<bool> released{false};
  std::thread sim([&] {
    bridge.drain_mailbox(&engine);
    released = true;
  });
  const std::string paused = await_status(server.port(), "\"paused\":true");
  EXPECT_NE(paused.find("\"paused\":true"), std::string::npos) << paused;
  EXPECT_FALSE(released.load());

  EXPECT_EQ(client::status_of(
                client::http_post(server.port(), "/control", "cmd=resume")),
            202);
  sim.join();
  EXPECT_TRUE(released.load());
  EXPECT_FALSE(bridge.paused());
  server.stop();
}

TEST(SimBridge, ShutdownReleasesAPausedRunAndStopsThePublishEvent) {
  sim::Engine engine;
  SimBridge bridge;
  bridge.attach(engine);

  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();

  EXPECT_EQ(client::status_of(
                client::http_post(server.port(), "/control", "cmd=pause")),
            202);
  std::atomic<bool> released{false};
  std::thread sim([&] {
    bridge.drain_mailbox(&engine);
    released = true;
  });
  await_status(server.port(), "\"paused\":true");
  EXPECT_FALSE(released.load());

  // Shutdown must release a sim thread blocked in the pause wait.
  EXPECT_EQ(client::status_of(
                client::http_post(server.port(), "/control", "cmd=shutdown")),
            200);
  sim.join();
  EXPECT_TRUE(released.load());
  EXPECT_TRUE(bridge.shutdown_requested());

  // The attached periodic event observes the flag and unschedules itself:
  // the engine drains its events and the run completes immediately.
  engine.run_until(5.0);
  EXPECT_EQ(engine.now(), 5.0);
  server.stop();
}

TEST(SimBridge, ControlTokenGatesTheControlEndpoint) {
  sim::Engine engine;
  SimBridge::Options opts;
  opts.control_token = "s3cret";
  SimBridge bridge(opts);
  bridge.attach(engine);
  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();

  // Missing or wrong token -> 401 and the command never reaches the
  // mailbox; read endpoints stay open (the token gates control only).
  EXPECT_EQ(client::status_of(
                client::http_post(server.port(), "/control", "cmd=pause")),
            401);
  EXPECT_EQ(client::status_of(client::http_post(
                server.port(), "/control", "cmd=pause&token=wrong")),
            401);
  EXPECT_FALSE(bridge.paused());
  EXPECT_EQ(client::status_of(client::http_get(server.port(), "/status")),
            200);

  // The right token lands, via form field...
  EXPECT_EQ(client::status_of(client::http_post(
                server.port(), "/control", "cmd=pause&token=s3cret")),
            202);
  EXPECT_TRUE(bridge.paused());

  // ...and via Authorization: Bearer.
  const std::string body = "cmd=resume";
  EXPECT_EQ(client::status_of(client::raw_request(
                server.port(),
                "POST /control HTTP/1.1\r\nHost: t\r\n"
                "Authorization: Bearer s3cret\r\n"
                "Content-Type: application/x-www-form-urlencoded\r\n"
                "Content-Length: " +
                    std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n" + body)),
            202);
  EXPECT_FALSE(bridge.paused());
  server.stop();
}

TEST(SimBridge, EmptyTokenOptionLeavesControlOpen) {
  sim::Engine engine;
  SimBridge bridge;  // default options: no token required
  bridge.attach(engine);
  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();
  EXPECT_EQ(client::status_of(
                client::http_post(server.port(), "/control", "cmd=pause")),
            202);
  EXPECT_EQ(client::status_of(
                client::http_post(server.port(), "/control", "cmd=resume")),
            202);
  server.stop();
}

TEST(SimBridge, StatusCarriesTheServeSection) {
  sim::Engine engine;
  SimBridge bridge;
  bridge.attach(engine);
  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();
  engine.run_until(0.2);
  const std::string status = await_status(server.port(), "\"serve\"");
  EXPECT_NE(status.find("\"serve\":{"), std::string::npos) << status;
  EXPECT_NE(status.find("\"active_connections\":"), std::string::npos);
  EXPECT_NE(status.find("\"slow_requests\":["), std::string::npos);
  server.stop();
}

TEST(SimBridge, EventsStreamDeliversBusRecordsAsSse) {
  sim::Engine engine;
  sim::TelemetryBus bus;
  const auto subj = bus.intern_subject("sse.probe");
  SimBridge bridge;
  bridge.set_telemetry(&bus);
  engine.every(0.05, [&] {
    bus.record(engine.now(), sim::TelemetryBus::kDecision, subj, 0.5,
               "picked");
    return true;
  });
  bridge.attach(engine);

  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();

  // Subscribe first, then drive the sim so events flow to the queue.
  const int fd = client::connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::string req = "GET /events HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, req.data(), req.size(), 0), 0);

  std::string got;
  std::thread sim;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool started = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!started && got.find("text/event-stream") != std::string::npos) {
      // Headers arrived -> the subscription exists; now run the sim.
      started = true;
      sim = std::thread([&] { engine.run_until(2.0); });
    }
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) got.append(buf, static_cast<std::size_t>(n));
    if (got.find("\"subject\":\"sse.probe\"") != std::string::npos) break;
  }
  if (sim.joinable()) sim.join();
  ::close(fd);

  EXPECT_NE(got.find("data: {\"t\":"), std::string::npos) << got;
  EXPECT_NE(got.find("\"category\":\"decision\""), std::string::npos);
  EXPECT_NE(got.find("\"subject\":\"sse.probe\""), std::string::npos);
  EXPECT_NE(got.find("\"detail\":\"picked\""), std::string::npos);
  server.stop();
}

TEST(SimBridge, CheckpointCommandRunsTheHookAtAStepBoundary) {
  sim::Engine engine;
  SimBridge bridge;
  std::vector<double> saves;
  bridge.set_checkpoint_hook([&saves](double t) {
    saves.push_back(t);
    return true;
  });
  bridge.attach(engine);
  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();

  // Disabled world -> 503 (exercised in its own test below); here the
  // hook is wired, so the command queues for the sim thread.
  EXPECT_EQ(client::status_of(client::http_post(server.port(), "/control",
                                                "cmd=checkpoint")),
            202);
  EXPECT_TRUE(saves.empty());  // queued, not applied
  engine.run_until(0.2);
  ASSERT_EQ(saves.size(), 1u);  // drained exactly once, on the sim thread

  // /status's checkpoint block reflects the save.
  const std::string status =
      await_status(server.port(), "\"checkpoint\":{\"count\":1");
  EXPECT_NE(status.find("\"checkpoint\":{\"count\":1"), std::string::npos)
      << status;
  EXPECT_NE(status.find("\"enabled\":true"), std::string::npos);
  server.stop();
}

TEST(SimBridge, CheckpointCommandWithoutHookIs503) {
  sim::Engine engine;
  SimBridge bridge;
  bridge.attach(engine);
  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();

  EXPECT_EQ(client::status_of(client::http_post(server.port(), "/control",
                                                "cmd=checkpoint")),
            503);
  const std::string status = await_status(server.port(), "\"checkpoint\"");
  EXPECT_NE(status.find("\"enabled\":false"), std::string::npos) << status;
  server.stop();
}

TEST(SimBridge, AppliedCommandsAreJournaledWithSimTime) {
  sim::Engine engine;
  multicore::Platform platform(multicore::PlatformConfig::big_little(2, 2),
                               7);
  fault::Injector inj;
  fault::bind_platform(inj, platform);

  ckpt::ControlJournal journal;
  SimBridge bridge;
  bridge.set_injector(&inj);
  bridge.set_journal(&journal);
  bridge.set_checkpoint_hook([](double) { return true; });
  bridge.attach(engine);
  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();

  ASSERT_EQ(client::status_of(client::http_post(
                server.port(), "/control",
                "cmd=inject&kind=core-fail&unit=1&mag=2&dur=5")),
            202);
  ASSERT_EQ(client::status_of(client::http_post(
                server.port(), "/control",
                "cmd=inject&kind=core-fail&unit=0&dur=3")),
            202);
  // Checkpoint saves are NOT journaled: they read state, never mutate it,
  // so replaying one would be meaningless.
  ASSERT_EQ(client::status_of(client::http_post(server.port(), "/control",
                                                "cmd=checkpoint")),
            202);
  EXPECT_EQ(journal.size(), 0u);  // nothing drained yet
  engine.run_until(0.2);

  const auto entries = journal.snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].cmd.unit, 1u);
  EXPECT_EQ(entries[0].cmd.magnitude, 2.0);
  EXPECT_EQ(entries[1].cmd.unit, 0u);
  EXPECT_EQ(entries[1].cmd.duration, 3.0);
  // Both drained at the same (first) publish boundary, in POST order.
  EXPECT_GE(entries[0].t, 0.0);
  EXPECT_EQ(entries[0].t, entries[1].t);
  // The recorded stream round-trips through the --control-journal spec.
  std::vector<ckpt::JournalEntry> back;
  ASSERT_TRUE(ckpt::parse_journal_spec(ckpt::journal_spec(entries), back)
                  .ok());
  EXPECT_EQ(back.size(), 2u);
  server.stop();
}

}  // namespace

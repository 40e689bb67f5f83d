// SimBridge semantics: snapshot publishing at step boundaries, the control
// mailbox (commands land between engine events only), pause/resume across
// the seam, SSE delivery, and shutdown observability.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/journal.hpp"
#include "core/agent.hpp"
#include "core/degrade.hpp"
#include "learn/bandit.hpp"
#include "fault/adapters.hpp"
#include "fault/fault.hpp"
#include "multicore/platform.hpp"
#include "serve/bridge.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"
#include "support/fingerprint.hpp"
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

/// Polls GET `path` until `needle` appears (or ~2.5 s elapse).
std::string await_body(unsigned short port, const std::string& path,
                       const std::string& needle) {
  std::string body;
  for (int i = 0; i < 250; ++i) {
    body = client::body_of(client::http_get(port, path));
    if (body.find(needle) != std::string::npos) return body;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return body;
}

std::string await_status(unsigned short port, const std::string& needle) {
  return await_body(port, "/status", needle);
}

/// The run of digits that follows `key` in `text` ("" if absent).
std::string number_after(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + key.size();
  return text.substr(begin,
                     text.find_first_not_of("0123456789", begin) - begin);
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

TEST(SimBridge, MetricsAndStatusShowTheSamePublish) {
  // One publish is one frame. Registry activity after it, a snapshot()
  // included, stays invisible until the next publish, and /metrics'
  // generation is /status's publish count.
  sim::MetricsRegistry metrics;
  const auto c = metrics.counter("frame.test");
  metrics.add(c, 3.0);
  SimBridge bridge;
  bridge.set_metrics(&metrics);
  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();

  bridge.publish_now(1.0);
  metrics.add(c, 4.0);
  metrics.snapshot(5.0);

  const std::string page =
      client::body_of(client::http_get(server.port(), "/metrics"));
  const std::string status =
      client::body_of(client::http_get(server.port(), "/status"));
  EXPECT_NE(page.find("\nsa_sim_time_seconds 1\n"), std::string::npos)
      << page;
  EXPECT_NE(page.find("\nsa_frame_test 3\n"), std::string::npos) << page;
  const std::string generation =
      number_after(page, "\nsa_metrics_generation ");
  EXPECT_FALSE(generation.empty()) << page;
  EXPECT_EQ(generation, number_after(status, "\"publishes\":")) << status;
  server.stop();
}

TEST(SimBridge, NamesInternedAfterAPublishRenderByNameAfterTheNext) {
  sim::TelemetryBus bus;
  SimBridge bridge;
  bridge.set_telemetry(&bus);
  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();
  bridge.publish_now(0.0);  // a name table of the canonical categories

  const int fd = client::connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::string req = "GET /events HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, req.data(), req.size(), 0), 0);
  const std::string subscribed = "sa_serve_sse_subscribers 1\n";
  ASSERT_NE(await_body(server.port(), "/metrics", subscribed).find(subscribed),
            std::string::npos);

  const auto subj = bus.intern_subject("late.subject");
  bridge.publish_now(1.0);  // the bus grew: a new name table
  bus.record(1.0, sim::TelemetryBus::kObservation, subj, 2.0, "late");
  bridge.publish_now(2.0);  // nothing new: the same table again

  std::string got;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline &&
         got.find("\"detail\":\"late\"") == std::string::npos) {
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) got.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(got.find("\"category\":\"observation\",\"subject\":"
                     "\"late.subject\""),
            std::string::npos)
      << got;

  const std::string page =
      client::body_of(client::http_get(server.port(), "/metrics"));
  EXPECT_NE(page.find("sa_bus_events_total{category=\"observation\"} 1\n"),
            std::string::npos)
      << page;
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
  EXPECT_EQ(inj.surface(inj.log().front().surface).kind,
            fault::FaultKind::CoreFail);

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
  // The headers can arrive before handle_events subscribes to the fan-out,
  // and the whole run can finish in between: start the sim only once
  // /metrics counts the subscriber.
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string metrics =
        client::body_of(client::http_get(server.port(), "/metrics"));
    if (metrics.find("sa_serve_sse_subscribers 1\n") != std::string::npos) {
      sim = std::thread([&] { engine.run_until(2.0); });
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  while (std::chrono::steady_clock::now() < deadline) {
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

TEST(SimBridge, InjectAndCheckpointAnswer503UntilAttach) {
  // A served run starts its server before the sim thread wires the cell.
  // Until attach(), control that would read the injector or the checkpoint
  // hook answers 503 without touching either, even while they are being
  // written (TSan sees any unordered read); pause, resume and shutdown
  // need no wiring and work throughout.
  sim::Engine engine;
  multicore::Platform platform(multicore::PlatformConfig::big_little(2, 2),
                               7);
  fault::Injector inj;
  fault::bind_platform(inj, platform);
  SimBridge bridge;
  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();
  const auto post = [port = server.port()](const char* body) {
    return client::status_of(client::http_post(port, "/control", body));
  };

  std::vector<int> early;
  std::thread poster([&] {
    for (int i = 0; i < 10; ++i) {
      early.push_back(post("cmd=inject&kind=core-fail&unit=1&dur=5"));
      early.push_back(post("cmd=checkpoint"));
    }
  });
  std::vector<double> saves;
  bridge.set_injector(&inj);
  bridge.set_checkpoint_hook([&saves](double t) {
    saves.push_back(t);
    return true;
  });
  poster.join();
  ASSERT_EQ(early.size(), 20u);
  for (const int status : early) EXPECT_EQ(status, 503);

  EXPECT_EQ(post("cmd=pause"), 202);
  EXPECT_TRUE(bridge.paused());
  EXPECT_EQ(post("cmd=resume"), 202);
  EXPECT_FALSE(bridge.paused());

  bridge.attach(engine);
  EXPECT_EQ(post("cmd=inject&kind=core-fail&unit=1&dur=5"), 202);
  EXPECT_EQ(post("cmd=checkpoint"), 202);
  engine.run_until(0.2);
  EXPECT_EQ(inj.injected(), 1u);  // none of the early posts was queued
  EXPECT_EQ(saves.size(), 1u);

  EXPECT_EQ(post("cmd=shutdown"), 200);
  EXPECT_TRUE(bridge.shutdown_requested());
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
  server.stop();
}

TEST(SimBridge, StatusExplanationsArePinned) {
  // /status renders each agent's newest explanations on the sim thread. A
  // traced bandit agent whose ladder steps down at tick 18 and back up at
  // 21: the published array holds decisions and both transition forms,
  // and its bytes are pinned.
  sim::TelemetryBus bus;
  sim::Tracer tracer(bus);
  core::AgentConfig cfg;
  cfg.seed = 9;
  cfg.tracer = &tracer;
  core::SelfAwareAgent agent("probe", cfg);
  double load = 0.0;
  agent.add_sensor("load", [&load] { return load; });
  agent.add_action("low", [] {});
  agent.add_action("high", [] {});
  agent.goals().add_objective("load", core::utility::falling(0.0, 2.0), 1.0);
  agent.set_policy(std::make_unique<core::BanditPolicy>(
      std::make_unique<learn::Ucb1>(2)));
  core::DegradationPolicy::Params dp;
  dp.breach_updates = 2;
  dp.recover_updates = 3;
  core::DegradationPolicy ladder(agent, dp);
  core::KnowledgeBase& kb = agent.knowledge();
  const auto fault_key = kb.key("fault.active");
  const auto fault_src = kb.source_id("fault");

  SimBridge bridge;
  bridge.add_agent(&agent);
  bridge.add_degradation(&ladder);
  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();
  for (int i = 0; i < 24; ++i) {
    const double t = static_cast<double>(i);
    load = 1.0 + 0.5 * std::sin(0.7 * t);
    agent.step(t);
    agent.reward(agent.current_utility());
    kb.put_number(fault_key, i >= 17 && i < 19 ? 3.0 : 0.0, t, 1.0,
                  core::Scope::Private, fault_src);
    ladder.update(t, static_cast<sim::TraceId>(500 + i));
  }
  bridge.publish_now(24.0);
  const std::string status =
      client::body_of(client::http_get(server.port(), "/status"));
  server.stop();
  const std::size_t at = status.find(",\"explanations\":[");
  ASSERT_NE(at, std::string::npos) << status;
  const std::string array = status.substr(at);
  EXPECT_NE(array.find("Degraded meta→goal"), std::string::npos) << array;
  EXPECT_NE(array.find("Recovered"), std::string::npos) << array;
  EXPECT_NE(array.find("Alternatives considered"), std::string::npos)
      << array;
  test::support::Fingerprint fp;
  fp.add(array);
  EXPECT_EQ(fp.value(), 0xcb09f58b92915132ull) << std::hex << "digest 0x" << fp.value();
}

TEST(SimBridge, StatusFaultsArePinned) {
  // /status lists the injector's newest records, naming each surface. A
  // planned chain on both platform surfaces plus two operator injections
  // (one on each surface), with onsets and restores of both kinds inside
  // the published window: the block's bytes are pinned.
  sim::Engine engine;
  multicore::Platform platform(multicore::PlatformConfig::big_little(2, 2),
                               7);
  fault::Injector inj;
  fault::bind_platform(inj, platform);
  inj.bind(engine, fault::FaultPlan::parse(
                       "core-fail:rate=0.3,dur=1.5;freq-cap:rate=0.15,dur=1,"
                       "mag=2;seed=5"));
  engine.at(6.5, [&] {
    inj.inject_now(engine, fault::FaultKind::CoreFail, 5, 0.75, 1.25);
  });
  engine.at(7.25, [&] {
    inj.inject_now(engine, fault::FaultKind::FreqCap, 0, 3.0, 1.5);
  });
  engine.run_until(10.0);

  SimBridge bridge;
  bridge.set_injector(&inj);
  Server server(quick_opts());
  bridge.install(server);
  ASSERT_TRUE(server.start()) << server.error();
  bridge.publish_now(10.0);
  const std::string status =
      client::body_of(client::http_get(server.port(), "/status"));
  server.stop();
  const std::size_t at = status.find(",\"faults\":{");
  const std::size_t end = status.find(",\"explanations\":[");
  ASSERT_NE(at, std::string::npos) << status;
  ASSERT_NE(end, std::string::npos) << status;
  const std::string block = status.substr(at, end - at);
  // Both surfaces, both record kinds, and the injections' magnitudes.
  EXPECT_NE(block.find("\"surface\":\"multicore.core\""), std::string::npos)
      << block;
  EXPECT_NE(block.find("\"surface\":\"multicore.chip\""), std::string::npos)
      << block;
  EXPECT_NE(block.find("\"begin\":false"), std::string::npos) << block;
  EXPECT_NE(block.find("\"magnitude\":0.75"), std::string::npos) << block;
  EXPECT_NE(block.find("\"magnitude\":3"), std::string::npos) << block;
  test::support::Fingerprint fp;
  fp.add(block);
  EXPECT_EQ(fp.value(), 0x9939ff666034b08bull)
      << std::hex << "digest 0x" << fp.value() << "\n" << block;
}

}  // namespace

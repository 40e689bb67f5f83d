// sa::loadgen — closed-loop HTTP load generation for the serve plane.
//
// A Pool drives a live sa::serve endpoint with three client populations:
//
//   scrapers     keep-alive (or connect-per-request) GET loops over
//                /metrics, /status and /healthz — the Prometheus-shaped
//                traffic the ROADMAP's fleet story is about;
//   subscribers  long-lived GET /events SSE streams that hold a server
//                worker and measure time-to-first-byte;
//   controllers  periodic POST /control no-ops (cmd=resume), exercising
//                the mailbox path without perturbing the trajectory.
//
// Every client thread owns its own latency histograms (the same fixed
// log-linear buckets as serve::ServerStats, so client- and server-side
// percentiles are directly comparable) and its pacing draws from a
// per-thread splitmix64 stream — wall-clock latencies are whatever the
// machine gives, but the *request schedule* is reproducible per seed.
// POSIX sockets only; no dependencies beyond sa_serve for the histogram.
//
// Pool::report() folds per-thread state with integer addition, so the
// merged histograms do not depend on how many threads the samples were
// spread over.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/stats.hpp"

namespace sa::loadgen {

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  unsigned scrapers = 8;     ///< GET loop threads
  unsigned sse = 0;          ///< GET /events stream threads
  unsigned controllers = 0;  ///< periodic POST /control threads
  /// Mean wall-clock period between control POSTs (jittered ±50%).
  double control_period_s = 0.25;
  /// Mean think time between scraper requests (jittered ±50%); 0 runs the
  /// loop closed — the next request leaves when the response arrives.
  double think_s = 0.0;
  /// false: one connection per request (Connection: close), which cycles
  /// a small worker pool through thousands of clients.
  bool keep_alive = true;
  std::uint64_t seed = 1;  ///< base of the per-thread splitmix64 streams
  long timeout_ms = 5000;  ///< per-socket send/recv timeout
  std::string control_token;  ///< sent with every POST /control when set
};

/// Client-side view of one route class.
struct RouteReport {
  std::uint64_t requests = 0;  ///< completed with a 2xx status
  std::uint64_t errors = 0;    ///< connect/read failures or non-2xx
  serve::LatencyHistogram::Snapshot latency;  ///< successes only
};

struct Report {
  std::array<RouteReport, serve::kRouteClasses> routes{};
  std::uint64_t connects = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t bytes_received = 0;
};

/// One-shot GET helper (Connection: close, reads to EOF). Returns the
/// response body and stores the status in `status_out` (0 on transport
/// failure). Used by benches to self-scrape the endpoint they drive.
[[nodiscard]] std::string fetch(const std::string& host, std::uint16_t port,
                                const std::string& target, long timeout_ms,
                                int* status_out);

class Pool {
 public:
  explicit Pool(Options opts);
  ~Pool();  ///< stops and joins
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] unsigned clients() const noexcept {
    return opts_.scrapers + opts_.sse + opts_.controllers;
  }

  /// Merged across all client threads; callable while running (relaxed
  /// reads of live counters) or after stop().
  [[nodiscard]] Report report() const;

 private:
  struct ClientState;
  void scraper_main(ClientState& st, std::uint64_t stream);
  void sse_main(ClientState& st, std::uint64_t stream);
  void control_main(ClientState& st, std::uint64_t stream);

  Options opts_;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<ClientState>> states_;
  std::vector<std::thread> threads_;
};

}  // namespace sa::loadgen

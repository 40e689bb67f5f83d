// The served world's load: three client threads against a live
// serve::Server, each on one keep-alive connection.
//
//   metrics   closed loop: GET /metrics, next request 1 ms after the reply;
//   status    closed loop: GET /status;
//   control   open loop: POST /control cmd=resume (a no-op while the run is
//             not paused) due every 1/rate seconds. Latency is timed from
//             the request's due time, so a stall also charges the requests
//             queued behind it; lateness (send time minus due time) is how
//             far the generator itself fell behind.
//
// Every latency is kept as an exact sample; nothing is bucketed.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

struct RouteSamples {
  std::vector<double> latency_s;  ///< successful requests only
  std::vector<double> late_s;     ///< open loop: send time minus due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;        ///< transport failure or non-2xx
  std::uint64_t body_bytes = 0;    ///< successful responses' bodies
};

class Clients {
 public:
  Clients(std::uint16_t port, double control_rate_hz);
  ~Clients();  ///< stops and joins
  Clients(const Clients&) = delete;
  Clients& operator=(const Clients&) = delete;

  /// Starts the three client threads.
  void start();
  /// Stops and joins them; the samples are stable afterwards.
  void stop();

  [[nodiscard]] const RouteSamples& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const RouteSamples& status() const noexcept { return status_; }
  [[nodiscard]] const RouteSamples& control() const noexcept { return control_; }

 private:
  void closed_loop(const char* path, RouteSamples& out);
  void open_loop(RouteSamples& out);

  std::uint16_t port_;
  double control_period_s_;
  std::atomic<bool> running_{false};
  RouteSamples metrics_, status_, control_;
  std::vector<std::thread> threads_;  // after everything the threads use
};

}  // namespace perfbench

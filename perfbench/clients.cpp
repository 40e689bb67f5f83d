#include "clients.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Pause between a closed-loop client's reply and its next request, so the
/// two readers do not saturate the cores the simulation thread runs on.
constexpr auto kThinkTime = std::chrono::milliseconds(1);

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One keep-alive HTTP/1.1 connection to 127.0.0.1. Written against the
/// wire format, not the server's own parser, so the benchmark does not
/// check the server with the server's code.
class Connection {
 public:
  Connection() = default;
  ~Connection() { close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool open(std::uint16_t port) {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close();
      return false;
    }
    return true;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }

  /// Sends `request` and reads one Content-Length-framed response. Returns
  /// false on any transport failure; `status` is the HTTP status read.
  bool roundtrip(const std::string& request, int& status,
                 std::size_t& body_bytes) {
    status = 0;
    body_bytes = 0;
    for (std::size_t sent = 0; sent < request.size();) {
      const ssize_t n = ::send(fd_, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    std::size_t head_end = std::string::npos;
    std::size_t want = 0;
    char chunk[16384];
    for (;;) {
      if (head_end == std::string::npos) {
        head_end = buf_.find("\r\n\r\n");
        if (head_end != std::string::npos) {
          if (buf_.compare(0, 9, "HTTP/1.1 ") != 0) return false;
          status = std::atoi(buf_.c_str() + 9);
          const std::size_t cl = buf_.find("Content-Length: ");
          if (cl == std::string::npos || cl > head_end) return false;
          want = std::strtoul(buf_.c_str() + cl + 16, nullptr, 10);
        }
      }
      if (head_end != std::string::npos && buf_.size() >= head_end + 4 + want) {
        body_bytes = want;
        buf_.erase(0, head_end + 4 + want);
        return true;
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// One request on `conn`, reconnecting first if needed. Counts the attempt
/// and, on failure, drops the connection so the next call reconnects.
bool attempt(Connection& conn, std::uint16_t port, const std::string& request,
             RouteSamples& out, std::size_t& body) {
  ++out.attempted;
  int status = 0;
  const bool ok = (conn.is_open() || conn.open(port)) &&
                  conn.roundtrip(request, status, body) && status / 100 == 2;
  if (!ok) {
    ++out.failed;
    conn.close();
  }
  return ok;
}

}  // namespace

Clients::Clients(std::uint16_t port, double control_rate_hz)
    : port_(port), control_period_s_(1.0 / control_rate_hz) {
  // Reserved up front so sample storage never allocates while a traced run
  // counts allocations.
  for (RouteSamples* r : {&metrics_, &status_, &control_}) {
    r->latency_s.reserve(1 << 18);
  }
  control_.late_s.reserve(1 << 18);
}

Clients::~Clients() { stop(); }

void Clients::start() {
  running_.store(true, std::memory_order_relaxed);
  threads_.emplace_back([this] { closed_loop("/metrics", metrics_); });
  threads_.emplace_back([this] { closed_loop("/status", status_); });
  threads_.emplace_back([this] { open_loop(control_); });
}

void Clients::stop() {
  running_.store(false, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void Clients::closed_loop(const char* path, RouteSamples& out) {
  const std::string request =
      std::string("GET ") + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
  Connection conn;
  while (running_.load(std::memory_order_relaxed)) {
    const auto t0 = Clock::now();
    std::size_t body = 0;
    if (attempt(conn, port_, request, out, body)) {
      out.latency_s.push_back(seconds_between(t0, Clock::now()));
      out.body_bytes += body;
    }
    std::this_thread::sleep_for(kThinkTime);
  }
}

void Clients::open_loop(RouteSamples& out) {
  const std::string form = "cmd=resume";
  const std::string request =
      "POST /control HTTP/1.1\r\nHost: perfbench\r\n"
      "Content-Type: application/x-www-form-urlencoded\r\n"
      "Content-Length: " + std::to_string(form.size()) + "\r\n\r\n" + form;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(control_period_s_));
  Connection conn;
  const auto start = Clock::now();
  for (std::uint64_t k = 1; running_.load(std::memory_order_relaxed); ++k) {
    const auto due = start + period * static_cast<std::int64_t>(k);
    std::this_thread::sleep_until(due);
    if (!running_.load(std::memory_order_relaxed)) break;
    out.late_s.push_back(seconds_between(due, Clock::now()));
    std::size_t body = 0;
    if (attempt(conn, port_, request, out, body)) {
      out.latency_s.push_back(seconds_between(due, Clock::now()));
      out.body_bytes += body;
    }
  }
}

}  // namespace perfbench

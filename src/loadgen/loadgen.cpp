#include "loadgen/loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>


namespace sa::loadgen {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1).
double uniform01(std::uint64_t& rng) noexcept {
  return static_cast<double>(splitmix64(rng) >> 11) * 0x1.0p-53;
}

/// Sleeps ~`seconds`, waking early once `running` clears (checked every
/// 50 ms so stop() is never stuck behind a think pause).
void interruptible_sleep(double seconds, const std::atomic<bool>& running) {
  auto left = std::chrono::duration<double>(seconds);
  while (left.count() > 0 && running.load(std::memory_order_relaxed)) {
    const auto chunk =
        std::min<std::chrono::duration<double>>(left,
                                                std::chrono::milliseconds(50));
    std::this_thread::sleep_for(chunk);
    left -= chunk;
  }
}

bool send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Connects with the pool's timeouts applied. SO_SNDTIMEO is set *before*
/// connect so a SYN lost in an overloaded accept queue fails over instead
/// of hanging a client thread past stop(); SO_RCVTIMEO is short (250 ms)
/// because readers loop on EAGAIN while checking the running flag.
int connect_to(const std::string& host, std::uint16_t port, long timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval stv{};
  stv.tv_sec = timeout_ms / 1000;
  stv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &stv, sizeof stv);
  timeval rtv{};
  rtv.tv_usec = 250 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rtv, sizeof rtv);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    // A signal does not abort a TCP connect: on EINTR the handshake keeps
    // going in the background (connect() is never auto-restarted, even
    // under SA_RESTART), so wait for writability and read the final
    // status instead of tearing the socket down.
    if (errno != EINTR) {
      ::close(fd);
      return -1;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    for (;;) {
      const int pr = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) {  // poll error or connect timeout
        ::close(fd);
        return -1;
      }
      break;
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  return fd;
}

/// Minimal HTTP/1.1 response reader: status line + headers up to the blank
/// line, then exactly Content-Length body bytes (or to EOF without one).
/// Deliberately independent of serve::HttpParser so the load generator
/// does not validate the server with the server's own code. Returns false
/// on transport failure or deadline; `bytes` accumulates everything read.
bool read_response(int fd, const std::atomic<bool>& running, long timeout_ms,
                   int& status, std::uint64_t& bytes) {
  status = 0;
  std::string head;
  char buf[4096];
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t body_have = 0;
  std::size_t body_want = std::string::npos;  // npos = read to EOF
  bool in_body = false;
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK) &&
          running.load(std::memory_order_relaxed) &&
          Clock::now() < deadline) {
        continue;
      }
      return false;
    }
    if (n == 0) {
      // EOF: fine only if we were reading an unsized body.
      return in_body && body_want == std::string::npos;
    }
    bytes += static_cast<std::uint64_t>(n);
    if (in_body) {
      body_have += static_cast<std::size_t>(n);
    } else {
      head.append(buf, static_cast<std::size_t>(n));
      const std::size_t end = head.find("\r\n\r\n");
      if (end == std::string::npos) {
        if (head.size() > 64 * 1024) return false;  // runaway header
        continue;
      }
      if (head.compare(0, 9, "HTTP/1.1 ") == 0 && head.size() >= 12) {
        status = std::atoi(head.c_str() + 9);
      }
      const std::size_t cl = head.find("Content-Length: ");
      if (cl != std::string::npos && cl < end) {
        body_want = static_cast<std::size_t>(
            std::strtoul(head.c_str() + cl + 16, nullptr, 10));
      }
      body_have = head.size() - (end + 4);
      in_body = true;
    }
    if (body_want != std::string::npos && body_have >= body_want) {
      return true;
    }
  }
}

}  // namespace

std::string fetch(const std::string& host, std::uint16_t port,
                  const std::string& target, long timeout_ms,
                  int* status_out) {
  if (status_out != nullptr) *status_out = 0;
  const int fd = connect_to(host, port, timeout_ms);
  if (fd < 0) return {};
  const std::string req = "GET " + target +
                          " HTTP/1.1\r\nHost: loadgen\r\n"
                          "Connection: close\r\n\r\n";
  std::string all;
  if (send_all(fd, req)) {
    char buf[4096];
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (Clock::now() < deadline) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        break;
      }
      if (n == 0) break;
      all.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const std::size_t end = all.find("\r\n\r\n");
  if (end == std::string::npos) return {};
  if (status_out != nullptr && all.compare(0, 9, "HTTP/1.1 ") == 0) {
    *status_out = std::atoi(all.c_str() + 9);
  }
  return all.substr(end + 4);
}

/// Per-thread slice of the pool's report. Counters are atomics and the
/// histograms are internally atomic, so report() can read them while the
/// owning thread is still driving load.
struct Pool::ClientState {
  std::array<serve::LatencyHistogram, serve::kRouteClasses> latency{};
  std::array<std::atomic<std::uint64_t>, serve::kRouteClasses> requests{};
  std::array<std::atomic<std::uint64_t>, serve::kRouteClasses> errors{};
  std::atomic<std::uint64_t> connects{0};
  std::atomic<std::uint64_t> connect_failures{0};
  std::atomic<std::uint64_t> bytes{0};
};

Pool::Pool(Options opts) : opts_(std::move(opts)) {}

Pool::~Pool() { stop(); }

void Pool::start() {
  if (running_.exchange(true)) return;
  const unsigned total = clients();
  states_.clear();
  states_.reserve(total);
  threads_.reserve(total);
  for (unsigned i = 0; i < total; ++i) {
    states_.push_back(std::make_unique<ClientState>());
  }
  // Distinct splitmix64 stream per thread, derived from the pool seed and
  // the thread's index — the same (seed, clients) always paces the same.
  unsigned idx = 0;
  for (unsigned i = 0; i < opts_.scrapers; ++i, ++idx) {
    std::uint64_t s = opts_.seed;
    for (unsigned k = 0; k <= idx; ++k) splitmix64(s);
    threads_.emplace_back(
        [this, st = states_[idx].get(), s] { scraper_main(*st, s); });
  }
  for (unsigned i = 0; i < opts_.sse; ++i, ++idx) {
    std::uint64_t s = opts_.seed;
    for (unsigned k = 0; k <= idx; ++k) splitmix64(s);
    threads_.emplace_back(
        [this, st = states_[idx].get(), s] { sse_main(*st, s); });
  }
  for (unsigned i = 0; i < opts_.controllers; ++i, ++idx) {
    std::uint64_t s = opts_.seed;
    for (unsigned k = 0; k <= idx; ++k) splitmix64(s);
    threads_.emplace_back(
        [this, st = states_[idx].get(), s] { control_main(*st, s); });
  }
}

void Pool::stop() {
  if (!running_.exchange(false)) return;
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

Report Pool::report() const {
  Report out;
  for (const auto& st : states_) {
    for (std::size_t r = 0; r < serve::kRouteClasses; ++r) {
      out.routes[r].requests +=
          st->requests[r].load(std::memory_order_relaxed);
      out.routes[r].errors += st->errors[r].load(std::memory_order_relaxed);
      out.routes[r].latency.merge(st->latency[r].snapshot());
    }
    out.connects += st->connects.load(std::memory_order_relaxed);
    out.connect_failures +=
        st->connect_failures.load(std::memory_order_relaxed);
    out.bytes_received += st->bytes.load(std::memory_order_relaxed);
  }
  return out;
}

void Pool::scraper_main(ClientState& st, std::uint64_t stream) {
  std::uint64_t rng = stream;
  int fd = -1;
  while (running_.load(std::memory_order_relaxed)) {
    if (fd < 0) {
      fd = connect_to(opts_.host, opts_.port, opts_.timeout_ms);
      if (fd < 0) {
        st.connect_failures.fetch_add(1, std::memory_order_relaxed);
        interruptible_sleep(0.002 + 0.008 * uniform01(rng), running_);
        continue;
      }
      st.connects.fetch_add(1, std::memory_order_relaxed);
    }
    // /metrics twice as often as /status and /healthz — the Prometheus-
    // shaped mix the serve plane is built for.
    const std::uint64_t pick = splitmix64(rng) & 3;
    const char* path =
        pick <= 1 ? "/metrics" : (pick == 2 ? "/status" : "/healthz");
    std::string req = std::string("GET ") + path + " HTTP/1.1\r\nHost: lg\r\n";
    if (!opts_.keep_alive) req += "Connection: close\r\n";
    req += "\r\n";
    const auto t0 = Clock::now();
    int status = 0;
    std::uint64_t bytes = 0;
    const bool ok =
        send_all(fd, req) &&
        read_response(fd, running_, opts_.timeout_ms, status, bytes);
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    st.bytes.fetch_add(bytes, std::memory_order_relaxed);
    const auto route =
        static_cast<std::size_t>(serve::classify_route(path));
    if (ok && status / 100 == 2) {
      st.requests[route].fetch_add(1, std::memory_order_relaxed);
      st.latency[route].record(dt);
    } else if (running_.load(std::memory_order_relaxed)) {
      st.errors[route].fetch_add(1, std::memory_order_relaxed);
    }
    if (!ok || !opts_.keep_alive) {
      ::close(fd);
      fd = -1;
    }
    if (opts_.think_s > 0.0) {
      interruptible_sleep(opts_.think_s * (0.5 + uniform01(rng)), running_);
    }
  }
  if (fd >= 0) ::close(fd);
}

void Pool::sse_main(ClientState& st, std::uint64_t stream) {
  std::uint64_t rng = stream;
  const auto route = static_cast<std::size_t>(serve::RouteClass::Events);
  while (running_.load(std::memory_order_relaxed)) {
    const int fd = connect_to(opts_.host, opts_.port, opts_.timeout_ms);
    if (fd < 0) {
      st.connect_failures.fetch_add(1, std::memory_order_relaxed);
      interruptible_sleep(0.005 + 0.02 * uniform01(rng), running_);
      continue;
    }
    st.connects.fetch_add(1, std::memory_order_relaxed);
    const auto t0 = Clock::now();
    bool got_header = false;
    if (send_all(fd, "GET /events HTTP/1.1\r\nHost: lg\r\n\r\n")) {
      char buf[4096];
      while (running_.load(std::memory_order_relaxed)) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n < 0) {
          if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
            continue;  // short RCVTIMEO tick; re-check running
          }
          break;
        }
        if (n == 0) break;
        st.bytes.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
        if (!got_header) {
          // Time to first byte is the stream's latency figure; the tail
          // is open-ended by design.
          got_header = true;
          st.latency[route].record(
              std::chrono::duration<double>(Clock::now() - t0).count());
          st.requests[route].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    if (!got_header && running_.load(std::memory_order_relaxed)) {
      st.errors[route].fetch_add(1, std::memory_order_relaxed);
    }
    ::close(fd);
  }
}

void Pool::control_main(ClientState& st, std::uint64_t stream) {
  std::uint64_t rng = stream;
  const auto route = static_cast<std::size_t>(serve::RouteClass::Control);
  // cmd=resume is a no-op while the sim is not paused: it exercises the
  // whole control path (parse, auth, pause_mu_, notify) without changing
  // anything the trajectory depends on.
  std::string body = "cmd=resume";
  if (!opts_.control_token.empty()) body += "&token=" + opts_.control_token;
  const std::string req =
      "POST /control HTTP/1.1\r\nHost: lg\r\n"
      "Content-Type: application/x-www-form-urlencoded\r\n"
      "Content-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  while (running_.load(std::memory_order_relaxed)) {
    interruptible_sleep(opts_.control_period_s * (0.5 + uniform01(rng)),
                        running_);
    if (!running_.load(std::memory_order_relaxed)) break;
    const int fd = connect_to(opts_.host, opts_.port, opts_.timeout_ms);
    if (fd < 0) {
      st.connect_failures.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    st.connects.fetch_add(1, std::memory_order_relaxed);
    const auto t0 = Clock::now();
    int status = 0;
    std::uint64_t bytes = 0;
    const bool ok =
        send_all(fd, req) &&
        read_response(fd, running_, opts_.timeout_ms, status, bytes);
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    st.bytes.fetch_add(bytes, std::memory_order_relaxed);
    if (ok && status / 100 == 2) {
      st.requests[route].fetch_add(1, std::memory_order_relaxed);
      st.latency[route].record(dt);
    } else if (running_.load(std::memory_order_relaxed)) {
      st.errors[route].fetch_add(1, std::memory_order_relaxed);
    }
    ::close(fd);
  }
}

}  // namespace sa::loadgen

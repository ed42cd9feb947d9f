#include "net/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <thread>

namespace eccheck::net {
namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void fail(const std::string& who, const std::string& what) {
  throw CheckFailure("net: " + who + ": " + what);
}

[[noreturn]] void fail_errno(const std::string& who, const std::string& what,
                             int err) {
  fail(who, what + " (" + ::strerror(err) + ")");
}

void set_nonblocking(int fd, bool on) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  ECC_CHECK(flags >= 0);
  if (on)
    flags |= O_NONBLOCK;
  else
    flags &= ~O_NONBLOCK;
  ECC_CHECK(::fcntl(fd, F_SETFL, flags) == 0);
}

/// poll for `events` until `deadline`; false on timeout.
bool poll_until(int fd, short events, Clock::time_point deadline,
                const std::string& who) {
  for (;;) {
    auto left = std::chrono::duration_cast<Millis>(deadline - Clock::now());
    if (left.count() <= 0) return false;
    struct pollfd p;
    p.fd = fd;
    p.events = events;
    p.revents = 0;
    int rc = ::poll(&p, 1, static_cast<int>(left.count()));
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail_errno(who, "poll", errno);
    }
    if (rc == 0) return false;
    return true;  // readable/writable or error — caller's read/write decides
  }
}

struct SockAddr {
  union {
    struct sockaddr sa;
    struct sockaddr_in in;
    struct sockaddr_un un;
  } u;
  socklen_t len = 0;
  int family = AF_UNIX;
};

SockAddr resolve(const Endpoint& ep, const std::string& who) {
  SockAddr a;
  ::memset(&a.u, 0, sizeof(a.u));
  if (ep.kind == Endpoint::Kind::kUds) {
    a.family = AF_UNIX;
    a.u.un.sun_family = AF_UNIX;
    if (ep.path.size() + 1 > sizeof(a.u.un.sun_path))
      fail(who, "UDS path too long: " + ep.path);
    ::memcpy(a.u.un.sun_path, ep.path.c_str(), ep.path.size() + 1);
    a.len = static_cast<socklen_t>(offsetof(struct sockaddr_un, sun_path) +
                                   ep.path.size() + 1);
  } else {
    a.family = AF_INET;
    a.u.in.sin_family = AF_INET;
    a.u.in.sin_port = htons(ep.port);
    const std::string host = ep.host == "localhost" ? "127.0.0.1" : ep.host;
    if (::inet_pton(AF_INET, host.c_str(), &a.u.in.sin_addr) != 1)
      fail(who, "bad IPv4 address: " + ep.host);
    a.len = sizeof(a.u.in);
  }
  return a;
}

bool is_tcp_fd(int fd) {
  struct sockaddr_storage ss;
  socklen_t slen = sizeof(ss);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&ss), &slen) != 0)
    return false;
  return ss.ss_family == AF_INET || ss.ss_family == AF_INET6;
}

void tune(int fd, const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kTcp) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  } else {
    // Frames flow from the connecting side; the accepting side only sends
    // acks back. Best effort: a refused size leaves the default.
    const int bytes = kUdsSendBufferBytes;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  }
}

}  // namespace

void set_tcp_nodelay(const Socket& s, bool on) {
  if (!s.valid() || !is_tcp_fd(s.fd())) return;
  int v = on ? 1 : 0;
  ::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &v, sizeof(v));
}

bool tcp_nodelay_on(const Socket& s) {
  if (!s.valid() || !is_tcp_fd(s.fd())) return false;
  int v = 0;
  socklen_t vlen = sizeof(v);
  if (::getsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &v, &vlen) != 0)
    return false;
  return v != 0;
}

Endpoint Endpoint::uds(std::string path) {
  Endpoint e;
  e.kind = Kind::kUds;
  e.path = std::move(path);
  return e;
}

Endpoint Endpoint::tcp(std::string host, std::uint16_t port) {
  Endpoint e;
  e.kind = Kind::kTcp;
  e.host = std::move(host);
  e.port = port;
  return e;
}

Endpoint Endpoint::parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    ECC_CHECK_MSG(spec.size() > 5, "endpoint spec '" << spec
                                       << "' has an empty UDS path");
    return uds(spec.substr(5));
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const auto colon = rest.rfind(':');
    ECC_CHECK_MSG(colon != std::string::npos && colon > 0 &&
                      colon + 1 < rest.size(),
                  "endpoint spec '" << spec << "' is not tcp:host:port");
    const std::string port_str = rest.substr(colon + 1);
    // std::stoul would let "abc" / "1e9" / 2^80 escape as std::exception;
    // the port must be digits only and small enough to parse safely.
    const bool digits_only =
        port_str.size() <= 5 &&
        std::all_of(port_str.begin(), port_str.end(),
                    [](unsigned char c) { return std::isdigit(c) != 0; });
    ECC_CHECK_MSG(digits_only, "port '" << port_str << "' in endpoint spec '"
                                        << spec
                                        << "' is not a decimal number");
    const unsigned long port = std::stoul(port_str);
    ECC_CHECK_MSG(port <= 65535, "port out of range in '" << spec << "'");
    return tcp(rest.substr(0, colon), static_cast<std::uint16_t>(port));
  }
  throw CheckFailure("net: endpoint spec '" + spec +
                     "' must start with unix: or tcp:");
}

std::string Endpoint::to_string() const {
  return kind == Kind::kUds ? "unix:" + path
                            : "tcp:" + host + ":" + std::to_string(port);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket listen_on(Endpoint& ep, int backlog) {
  const std::string who = "listen " + ep.to_string();
  SockAddr addr = resolve(ep, who);
  Socket s(::socket(addr.family, SOCK_STREAM, 0));
  if (!s.valid()) fail_errno(who, "socket", errno);
  if (ep.kind == Endpoint::Kind::kUds) {
    ::unlink(ep.path.c_str());  // stale path from a killed predecessor
  } else {
    int one = 1;
    ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(s.fd(), &addr.u.sa, addr.len) != 0)
    fail_errno(who, "bind", errno);
  if (::listen(s.fd(), backlog) != 0) fail_errno(who, "listen", errno);
  if (ep.kind == Endpoint::Kind::kTcp && ep.port == 0) {
    struct sockaddr_in bound;
    socklen_t blen = sizeof(bound);
    ECC_CHECK(::getsockname(s.fd(), reinterpret_cast<struct sockaddr*>(&bound),
                            &blen) == 0);
    ep.port = ntohs(bound.sin_port);
  }
  return s;
}

Socket accept_with_timeout(const Socket& listener, Millis timeout,
                           const std::string& who) {
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    if (!poll_until(listener.fd(), POLLIN, deadline, who))
      fail(who, "accept timed out after " + std::to_string(timeout.count()) +
                    " ms — no peer connected");
    int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      Socket accepted(fd);
      // The connect side tunes in connect_with_retry; without the same on
      // accepted sockets every CRC-echo ack waits out Nagle/delayed-ack.
      set_tcp_nodelay(accepted);
      return accepted;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED)
      continue;
    fail_errno(who, "accept", errno);
  }
}

Socket connect_with_retry(const Endpoint& ep, Millis connect_timeout,
                          int retries, Millis backoff_base, Millis backoff_max,
                          const std::string& who, int* retry_count) {
  SockAddr addr = resolve(ep, who);
  Millis backoff = backoff_base;
  std::string last_error = "unknown";
  for (int attempt = 0; attempt <= retries; ++attempt) {
    if (attempt > 0) {
      if (retry_count != nullptr) ++*retry_count;
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, backoff_max);
    }
    Socket s(::socket(addr.family, SOCK_STREAM, 0));
    if (!s.valid()) fail_errno(who, "socket", errno);
    set_nonblocking(s.fd(), true);
    int rc = ::connect(s.fd(), &addr.u.sa, addr.len);
    if (rc != 0 && detail::connect_pending(errno)) {
      const auto deadline = Clock::now() + connect_timeout;
      if (!poll_until(s.fd(), POLLOUT, deadline, who)) {
        last_error = "connect timed out";
        continue;
      }
      int err = 0;
      socklen_t elen = sizeof(err);
      ECC_CHECK(::getsockopt(s.fd(), SOL_SOCKET, SO_ERROR, &err, &elen) == 0);
      if (err != 0) {
        errno = err;
        rc = -1;
      } else {
        rc = 0;
      }
    }
    if (rc == 0) {
      set_nonblocking(s.fd(), false);
      tune(s.fd(), ep);
      return s;
    }
    // Listener not up yet (SPMD startup) or just died — both retryable
    // within the bounded budget.
    if (errno == ECONNREFUSED || errno == ENOENT || errno == EAGAIN ||
        errno == ETIMEDOUT || errno == ECONNRESET) {
      last_error = ::strerror(errno);
      continue;
    }
    fail_errno(who, "connect", errno);
  }
  fail(who, "peer unreachable after " + std::to_string(retries + 1) +
                " attempts (" + last_error + ")");
}

ProbeResult probe_endpoint(const Endpoint& ep, Millis timeout) {
  const std::string who = "probe " + ep.to_string();
  SockAddr addr = resolve(ep, who);
  Socket s(::socket(addr.family, SOCK_STREAM, 0));
  if (!s.valid()) fail_errno(who, "socket", errno);
  set_nonblocking(s.fd(), true);
  int rc = ::connect(s.fd(), &addr.u.sa, addr.len);
  if (rc != 0 && detail::connect_pending(errno)) {
    if (!poll_until(s.fd(), POLLOUT, Clock::now() + timeout, who))
      return ProbeResult::kTimeout;
    int err = 0;
    socklen_t elen = sizeof(err);
    ECC_CHECK(::getsockopt(s.fd(), SOL_SOCKET, SO_ERROR, &err, &elen) == 0);
    errno = err;
    rc = err == 0 ? 0 : -1;
  }
  if (rc == 0) return ProbeResult::kOk;
  if (errno == ECONNREFUSED || errno == ENOENT || errno == ECONNRESET)
    return ProbeResult::kRefused;
  if (errno == ETIMEDOUT || errno == EAGAIN) return ProbeResult::kTimeout;
  fail_errno(who, "connect", errno);
}

void write_full(const Socket& s, const void* data, std::size_t len,
                Millis timeout, const std::string& who) {
  const auto deadline = Clock::now() + timeout;
  const char* p = static_cast<const char*>(data);
  std::size_t left = len;
  while (left > 0) {
    // MSG_NOSIGNAL: a dead peer must surface as CheckFailure, not SIGPIPE.
    ssize_t n = ::send(s.fd(), p, left, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      p += n;
      left -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!poll_until(s.fd(), POLLOUT, deadline, who))
        fail(who, "write timed out with " + std::to_string(left) +
                      " bytes unsent (peer stalled or dead)");
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET))
      fail(who, "peer died mid-write (" + std::string(::strerror(errno)) +
                    ")");
    fail_errno(who, "send", errno);
  }
}

void writev_full(const Socket& s, const IoSlice* slices, std::size_t count,
                 Millis timeout, const std::string& who) {
  const auto deadline = Clock::now() + timeout;
  // Local iovec copy: sendmsg may consume slices partially, and advancing
  // through the list must not mutate the caller's view.
  constexpr std::size_t kMaxIov = 8;
  ECC_CHECK_MSG(count <= kMaxIov, who << ": too many iovec slices");
  struct iovec iov[kMaxIov];
  std::size_t n_iov = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (slices[i].len == 0) continue;
    iov[n_iov].iov_base = const_cast<void*>(slices[i].data);
    iov[n_iov].iov_len = slices[i].len;
    total += slices[i].len;
    ++n_iov;
  }
  std::size_t first = 0;  // first iovec with unsent bytes
  std::size_t left = total;
  while (left > 0) {
    struct msghdr msg;
    ::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov + first;
    msg.msg_iovlen = n_iov - first;
    // MSG_NOSIGNAL: a dead peer must surface as CheckFailure, not SIGPIPE.
    ssize_t n = ::sendmsg(s.fd(), &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      left -= static_cast<std::size_t>(n);
      std::size_t advanced = static_cast<std::size_t>(n);
      while (advanced > 0 && advanced >= iov[first].iov_len) {
        advanced -= iov[first].iov_len;
        ++first;
      }
      if (advanced > 0) {
        iov[first].iov_base = static_cast<char*>(iov[first].iov_base) +
                              advanced;
        iov[first].iov_len -= advanced;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!poll_until(s.fd(), POLLOUT, deadline, who))
        fail(who, "gather-write timed out with " + std::to_string(left) +
                      " bytes unsent (peer stalled or dead)");
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET))
      fail(who, "peer died mid-write (" + std::string(::strerror(errno)) +
                    ")");
    fail_errno(who, "sendmsg", errno);
  }
}

void read_full(const Socket& s, void* data, std::size_t len, Millis timeout,
               const std::string& who) {
  const auto deadline = Clock::now() + timeout;
  char* p = static_cast<char*>(data);
  std::size_t left = len;
  while (left > 0) {
    ssize_t n = ::recv(s.fd(), p, left, MSG_DONTWAIT);
    if (n > 0) {
      p += n;
      left -= static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0)
      fail(who, "peer closed the connection with " + std::to_string(left) +
                    " bytes outstanding (peer death)");
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_until(s.fd(), POLLIN, deadline, who))
        fail(who, "read timed out with " + std::to_string(left) +
                      " bytes outstanding (peer stalled or dead)");
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) fail(who, "connection reset (peer death)");
    fail_errno(who, "recv", errno);
  }
}

std::size_t read_some(const Socket& s, void* data, std::size_t cap,
                      Millis timeout, const std::string& who) {
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    ssize_t n = ::recv(s.fd(), data, cap, MSG_DONTWAIT);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0)
      fail(who, "peer closed the connection mid-stream (peer death)");
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_until(s.fd(), POLLIN, deadline, who))
        fail(who, "read timed out (peer stalled or dead)");
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) fail(who, "connection reset (peer death)");
    fail_errno(who, "recv", errno);
  }
}

}  // namespace eccheck::net

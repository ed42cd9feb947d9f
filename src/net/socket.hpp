// POSIX socket primitives for the real transport: RAII fds, endpoint
// addressing (TCP and Unix-domain), and fully time-bounded I/O.
//
// Every blocking point — connect, accept, read, write — goes through
// poll(2) with a caller-supplied deadline, so a dead or wedged peer can
// never hang the checkpoint protocol: the operation throws CheckFailure
// when the timeout elapses, which is exactly the failure signal the rest
// of the system (Session, FailureDetector, chaos invariants) already
// understands. connect additionally retries with bounded exponential
// backoff, because in SPMD startup a peer's listener may simply not exist
// yet.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "common/check.hpp"

namespace eccheck::net {

using Millis = std::chrono::milliseconds;

/// A place a transport rank listens on: either a Unix-domain socket path
/// ("unix:/tmp/ec/rank0.sock") or a TCP host:port ("tcp:127.0.0.1:9000").
struct Endpoint {
  enum class Kind { kUds, kTcp };

  Kind kind = Kind::kUds;
  std::string path;         ///< kUds: filesystem path
  std::string host;         ///< kTcp: numeric IPv4 address or "localhost"
  std::uint16_t port = 0;   ///< kTcp: port (0 = bind ephemeral)

  static Endpoint uds(std::string path);
  static Endpoint tcp(std::string host, std::uint16_t port);

  /// Parse "unix:<path>" or "tcp:<host>:<port>"; throws CheckFailure on
  /// malformed specs.
  static Endpoint parse(const std::string& spec);

  std::string to_string() const;
  /// Short transport tag for span names / stats: "uds" or "tcp".
  const char* tag() const { return kind == Kind::kUds ? "uds" : "tcp"; }
};

/// Move-only RAII fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept {
    if (this != &o) {
      close();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();
  /// Release ownership without closing.
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// Bind + listen on `ep`. A stale UDS path is unlinked first (a replacement
/// rank re-listens on its predecessor's address); TCP sets SO_REUSEADDR.
/// For TCP port 0 the actual bound port is written back into `ep`.
Socket listen_on(Endpoint& ep, int backlog = 16);

/// Toggle TCP_NODELAY on a connected TCP socket; a no-op for non-TCP fds.
void set_tcp_nodelay(const Socket& s, bool on = true);

/// True when TCP_NODELAY is set on `s` (false for non-TCP fds).
bool tcp_nodelay_on(const Socket& s);

/// Accept one connection, waiting at most `timeout`; throws CheckFailure on
/// timeout ("no peer connected") or listener error. Accepted TCP sockets
/// get TCP_NODELAY, matching the connect side — the CRC-echo ack sent back
/// on an accepted connection must not sit behind Nagle.
Socket accept_with_timeout(const Socket& listener, Millis timeout,
                           const std::string& who);

namespace detail {
/// connect(2) outcomes that mean "in flight, poll for completion": the
/// canonical EINPROGRESS, and EINTR — a signal interrupted the call but the
/// connection still proceeds in the background (POSIX), so treating it as
/// fatal would kill healthy SPMD startups under chaos signals.
constexpr bool connect_pending(int err) {
  return err == EINPROGRESS || err == EINTR;
}
}  // namespace detail

/// SO_SNDBUF requested on connected Unix-domain sockets (the kernel doubles
/// it and caps it at 2 × net.core.wmem_max). The Linux default of ~208 KiB
/// holds a fifth of a 1 MiB packet frame, so every frame became a
/// rendezvous: the sender slept until the receiver had drained most of it.
/// With room for several frames a sender finishes its write and moves on,
/// and each rank sleeps about a third as often per save. TCP keeps its
/// autotuned buffers.
inline constexpr int kUdsSendBufferBytes = 4 << 20;

/// Connect to `ep`, retrying ECONNREFUSED/ENOENT (listener not up yet) with
/// exponential backoff: attempt i sleeps min(backoff_base·2^i, backoff_max)
/// before retrying, up to `retries` retries. Each individual attempt is
/// bounded by `connect_timeout`. Throws CheckFailure once the budget is
/// exhausted — a peer that never comes up is a dead peer. A UDS connection
/// gets kUdsSendBufferBytes of send buffer.
/// `retry_count`, when non-null, accumulates the number of retries taken.
Socket connect_with_retry(const Endpoint& ep, Millis connect_timeout,
                          int retries, Millis backoff_base, Millis backoff_max,
                          const std::string& who, int* retry_count = nullptr);

/// One bounded connect attempt against `ep`, classifying the outcome for
/// liveness probing: kOk (listener accepted — the process exists, though it
/// may be wedged), kRefused (connection refused / path gone: hard evidence
/// the process is dead), kTimeout (no answer within `timeout`: a gray
/// peer — SIGSTOP'd, overloaded, or partitioned). Never throws for those
/// three outcomes; only genuinely unexpected socket errors raise
/// CheckFailure.
enum class ProbeResult { kOk, kRefused, kTimeout };
ProbeResult probe_endpoint(const Endpoint& ep, Millis timeout);

/// Write exactly `len` bytes before `timeout` elapses (deadline covers the
/// whole transfer). EPIPE/ECONNRESET/timeout → CheckFailure.
void write_full(const Socket& s, const void* data, std::size_t len,
                Millis timeout, const std::string& who);

/// One scatter-gather region of a writev_full call.
struct IoSlice {
  const void* data = nullptr;
  std::size_t len = 0;
};

/// Gather-write every slice, in order, before `timeout` elapses — the
/// zero-copy framing primitive: header, trace context, key and payload go
/// out in one sendmsg(2) directly from their source buffers instead of
/// being copied into a contiguous frame first. Partial writes advance
/// through the slice list; the error taxonomy matches write_full.
void writev_full(const Socket& s, const IoSlice* slices, std::size_t count,
                 Millis timeout, const std::string& who);

/// Read exactly `len` bytes before `timeout` elapses. EOF (peer died) /
/// ECONNRESET / timeout → CheckFailure.
void read_full(const Socket& s, void* data, std::size_t len, Millis timeout,
               const std::string& who);

/// Read *at least one* byte, up to `cap`, before `timeout` elapses; returns
/// how many landed. The buffered-receive primitive: one syscall pulls in
/// whatever burst of small frames is already queued. Error taxonomy matches
/// read_full (EOF / reset / timeout → CheckFailure).
std::size_t read_some(const Socket& s, void* data, std::size_t cap,
                      Millis timeout, const std::string& who);

}  // namespace eccheck::net

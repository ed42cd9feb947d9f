#include "net/send_pump.hpp"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

namespace eccheck::net {
namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

SendPump::SendPump(Millis budget, obs::StatsRegistry* stats, int max_queue)
    : budget_(budget), stats_(stats), max_queue_(std::max(1, max_queue)) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  ECC_CHECK_MSG(epfd_ >= 0, "send pump: epoll_create1 failed ("
                                << ::strerror(errno) << ")");
}

SendPump::~SendPump() {
  if (epfd_ >= 0) ::close(epfd_);
}

SendPump::Peer& SendPump::peer_for(int rank, OutConn* conn, std::string who) {
  auto it = peers_.find(rank);
  if (it != peers_.end()) return it->second;
  Peer& p = peers_[rank];
  p.rank = rank;
  p.conn = conn;
  p.who = std::move(who);
  p.last_progress = Clock::now();
  return p;
}

void SendPump::want(Peer& p) {
  if (p.failed || !pending(p)) {
    if (p.in_epoll) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, p.conn->sock.fd(), nullptr);
      p.in_epoll = false;
    }
    return;
  }
  struct epoll_event ev;
  ::memset(&ev, 0, sizeof(ev));
  ev.data.ptr = &p;
  // Always watch for acks; only watch for writability while there is a
  // frame left to push (a permanent EPOLLOUT on an idle socket would spin).
  ev.events = EPOLLIN | (p.queue.empty() ? 0u : static_cast<unsigned>(EPOLLOUT));
  const int op = p.in_epoll ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  ECC_CHECK_MSG(::epoll_ctl(epfd_, op, p.conn->sock.fd(), &ev) == 0,
                "send pump: epoll_ctl failed (" << ::strerror(errno) << ")");
  p.in_epoll = true;
}

void SendPump::fail_peer(Peer& p, const std::string& message) {
  if (p.failed) return;
  p.failed = true;
  p.queue.clear();
  if (p.in_epoll) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, p.conn->sock.fd(), nullptr);
    p.in_epoll = false;
  }
  failures_.push_back({p.rank, "net: " + p.who + ": " + message});
}

void SendPump::drain_writes(Peer& p) {
  while (!p.queue.empty()) {
    QueuedFrame& f = p.queue.front();
    const std::size_t total = f.head.size() + f.payload.size();
    struct iovec iov[2];
    int n_iov = 0;
    if (p.off < f.head.size()) {
      iov[n_iov].iov_base =
          const_cast<std::byte*>(f.head.data()) + p.off;
      iov[n_iov].iov_len = f.head.size() - p.off;
      ++n_iov;
    }
    const std::size_t pay_off =
        p.off > f.head.size() ? p.off - f.head.size() : 0;
    if (pay_off < f.payload.size()) {
      iov[n_iov].iov_base =
          const_cast<std::byte*>(f.payload.data()) + pay_off;
      iov[n_iov].iov_len = f.payload.size() - pay_off;
      ++n_iov;
    }
    struct msghdr msg;
    ::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(n_iov);
    ssize_t n = ::sendmsg(p.conn->sock.fd(), &msg,
                          MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      p.off += static_cast<std::size_t>(n);
      p.last_progress = Clock::now();
      stats_->add("net.send.writev_bytes", static_cast<std::uint64_t>(n));
      if (p.off < total) continue;
      p.conn->window.push_back({p.conn->next_seq++, f.crc});
      stats_->add("net.send.bytes", f.payload.size());
      stats_->add("net.send.count");
      stats_->observe("net.ack.window",
                      static_cast<double>(p.conn->window.size()));
      p.queue.pop_front();
      p.off = 0;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      fail_peer(p, "peer died mid-write (" + std::string(::strerror(errno)) +
                       ")");
      return;
    }
    fail_peer(p, "sendmsg failed (" + std::string(::strerror(errno)) + ")");
    return;
  }
}

void SendPump::drain_acks(Peer& p) {
  for (;;) {
    ssize_t n = ::recv(p.conn->sock.fd(), p.ack_buf + p.ack_have,
                       kFrameHeaderBytes - p.ack_have, MSG_DONTWAIT);
    if (n > 0) {
      p.ack_have += static_cast<std::size_t>(n);
      p.last_progress = Clock::now();
      if (p.ack_have < kFrameHeaderBytes) continue;
      p.ack_have = 0;
      FrameHeader ack;
      try {
        ack = decode_ack(p.ack_buf, "bad ack header");
      } catch (const CheckFailure& e) {
        fail_peer(p, e.what());
        return;
      }
      auto& window = p.conn->window;
      auto it = std::find_if(window.begin(), window.end(),
                             [&](const PendingAck& w) {
                               return w.seq == ack.aux;
                             });
      if (it == window.end()) {
        fail_peer(p, "ack names sequence " + std::to_string(ack.aux) +
                         " outside the open window");
        return;
      }
      if (it->crc != ack.payload_crc) {
        fail_peer(p, "ack CRC mismatch — payload corrupted in flight");
        return;
      }
      window.erase(it);
      stats_->add("net.ack.count");
      // Fully reconciled: stop reading. The peer may legitimately close the
      // connection right after its last ack (orderly shutdown) — reading on
      // would misread that EOF as a mid-window death.
      if (!pending(p)) return;
      continue;
    }
    if (n == 0) {
      if (pending(p))
        fail_peer(p, "peer closed the connection mid-window (peer death)");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) {
      fail_peer(p, "connection reset (peer death)");
      return;
    }
    fail_peer(p, "recv failed (" + std::string(::strerror(errno)) + ")");
    return;
  }
}

bool SendPump::step() {
  // Per-peer deadline sweep first: a peer with no progress for the budget
  // is dead to this pump even if epoll keeps timing out globally.
  const auto now = Clock::now();
  Millis wait = budget_;
  bool any = false;
  for (auto& [rank, p] : peers_) {
    if (!pending(p)) continue;
    any = true;
    const auto idle = std::chrono::duration_cast<Millis>(now - p.last_progress);
    if (idle >= budget_) {
      fail_peer(p, "made no progress for " + std::to_string(budget_.count()) +
                       " ms with frames in flight (peer stalled or dead)");
      continue;
    }
    wait = std::min(wait, budget_ - idle);
  }
  if (!any) return false;
  // Re-check: the sweep may have failed the last pending peer.
  any = false;
  for (auto& [rank, p] : peers_)
    if (pending(p)) any = true;
  if (!any) return false;

  struct epoll_event events[16];
  int rc = ::epoll_wait(epfd_, events, 16,
                        static_cast<int>(std::max<long long>(1, wait.count())));
  if (rc < 0) {
    if (errno == EINTR) return true;
    throw CheckFailure(std::string("send pump: epoll_wait failed (") +
                       ::strerror(errno) + ")");
  }
  for (int i = 0; i < rc; ++i) {
    Peer& p = *static_cast<Peer*>(events[i].data.ptr);
    if (p.failed) continue;
    // Drain readable acks before acting on EPOLLHUP: a peer that wrote its
    // acks and exited cleanly must not lose them to the hangup flag.
    if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) drain_acks(p);
    if (p.failed) continue;
    if (events[i].events & EPOLLOUT) drain_writes(p);
    if (p.failed) continue;
    if ((events[i].events & (EPOLLHUP | EPOLLERR)) && pending(p)) {
      fail_peer(p, "connection error/hangup with frames in flight "
                   "(peer death)");
      continue;
    }
    want(p);
  }
  return true;
}

void SendPump::enqueue(int peer, OutConn* conn, std::string who, Buffer head,
                       ByteSpan payload, Buffer payload_owned,
                       std::uint64_t crc) {
  Peer& p = peer_for(peer, conn, std::move(who));
  if (p.failed) return;  // queue already dropped; run() reports the failure
  // Backpressure: a slow peer's queue is bounded — drive the loop until it
  // drains below the bound (or the peer fails) instead of buffering
  // unboundedly.
  while (!p.failed && static_cast<int>(p.queue.size()) >= max_queue_)
    if (!step()) break;
  if (p.failed) return;
  stats_->observe("net.send.queue_depth",
                  static_cast<double>(p.queue.size() + 1));
  QueuedFrame f;
  f.head = std::move(head);
  f.owned = std::move(payload_owned);
  f.payload = f.owned.empty() ? payload : f.owned.span();
  f.crc = crc;
  p.queue.push_back(std::move(f));
  want(p);
}

std::vector<SendPump::Failure> SendPump::run() {
  while (step()) {
  }
  return std::move(failures_);
}

}  // namespace eccheck::net

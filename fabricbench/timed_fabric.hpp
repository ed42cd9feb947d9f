// TimedFabric: the benchmark's measuring point at the cluster::Fabric
// boundary — a decorator shaped like cluster::FaultyFabric that forwards
// every call to the real transport and records, per fabric op, how many
// calls the engine made and how long it spent inside them, plus the
// per-operation deltas of the transport's StatsRegistry counters.
//
// Everything between two Fabric calls is engine (`core`) self time, so
// "operation wall time minus Σ fabric time" splits a save or load into
// core work and net work without touching the program. While an operation
// is traced (begin_operation with a trace id), each call also records a
// span parented directly under the benchmark's own save/load span; the
// transport's internal spans then nest under the fabric span.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fabric.hpp"
#include "obs/stats.hpp"
#include "obs/tracer.hpp"

namespace fabricbench {

class TimedFabric final : public eccheck::cluster::Fabric {
 public:
  enum Op {
    kNetSend,
    kSendBuffer,
    kSendBuffers,
    kBroadcast,
    kAllGather,
    kRingAllReduceXor,
    kBarrier,
    kOpCount
  };
  /// Metric-name stem of each op ("send_buffer" → net.send_buffer.s).
  static constexpr std::array<const char*, kOpCount> kOpNames = {
      "net_send",   "send_buffer",         "send_buffers", "broadcast",
      "all_gather", "ring_all_reduce_xor", "barrier"};

  struct OpStat {
    std::uint64_t calls = 0;
    double seconds = 0;
  };

  explicit TimedFabric(eccheck::cluster::Fabric& inner) : inner_(&inner) {}

  /// Start one measured operation: zero the per-op table, snapshot the
  /// fabric's counters and, when trace_id != 0, parent every call's span
  /// under (trace_id, parent_span).
  void begin_operation(std::uint64_t trace_id = 0,
                       std::uint64_t parent_span = 0) {
    stats_ = {};
    counters_before_ = inner_->stats().counters();
    trace_id_ = trace_id;
    parent_span_ = parent_span;
  }

  /// End the operation: stop emitting spans and return the counter deltas
  /// (net.*, delta.*, ...) since begin_operation.
  eccheck::obs::StatsRegistry::CounterMap end_operation() {
    trace_id_ = parent_span_ = 0;
    return eccheck::obs::StatsRegistry::delta(inner_->stats().counters(),
                                              counters_before_);
  }

  /// Per-op calls and seconds of the current (or last) operation.
  const std::array<OpStat, kOpCount>& op_stats() const { return stats_; }

  // ---- cluster::Fabric ---------------------------------------------------
  std::string fabric_name() const override { return inner_->fabric_name(); }
  int world_size() const override { return inner_->world_size(); }
  bool drives(int node) const override { return inner_->drives(node); }
  int self_rank() const override { return inner_->self_rank(); }
  eccheck::cluster::Store& store(int node) override {
    return inner_->store(node);
  }

  void net_send(int src, int dst, std::size_t bytes,
                const std::string& label) override {
    timed(kNetSend, [&] { inner_->net_send(src, dst, bytes, label); });
  }
  void send_buffer(int src, int dst, const std::string& src_key,
                   const std::string& dst_key) override {
    timed(kSendBuffer,
          [&] { inner_->send_buffer(src, dst, src_key, dst_key); });
  }
  void send_buffers(
      int src, int dst,
      const std::vector<std::pair<std::string, std::string>>& pairs) override {
    timed(kSendBuffers, [&] { inner_->send_buffers(src, dst, pairs); });
  }
  void broadcast(const std::vector<int>& nodes, int root,
                 const std::string& key) override {
    timed(kBroadcast, [&] { inner_->broadcast(nodes, root, key); });
  }
  void all_gather(const std::vector<int>& nodes,
                  const std::function<std::string(int)>& key_of) override {
    timed(kAllGather, [&] { inner_->all_gather(nodes, key_of); });
  }
  void ring_all_reduce_xor(const std::vector<int>& nodes,
                           const std::string& key) override {
    timed(kRingAllReduceXor,
          [&] { inner_->ring_all_reduce_xor(nodes, key); });
  }
  void barrier(const std::vector<int>& nodes) override {
    timed(kBarrier, [&] { inner_->barrier(nodes); });
  }

  // Remote storage is step 4 (flush), which the benchmark leaves off; it
  // passes through unmeasured.
  void remote_write(int node, const std::string& key,
                    const std::string& remote_key) override {
    inner_->remote_write(node, key, remote_key);
  }
  void remote_read(int node, const std::string& remote_key,
                   const std::string& key) override {
    inner_->remote_read(node, remote_key, key);
  }
  bool remote_contains(int node, const std::string& remote_key) override {
    return inner_->remote_contains(node, remote_key);
  }
  std::vector<std::string> remote_list(int node,
                                       const std::string& prefix) override {
    return inner_->remote_list(node, prefix);
  }
  void remote_erase(int node, const std::string& remote_key) override {
    inner_->remote_erase(node, remote_key);
  }
  eccheck::obs::StatsRegistry& stats() override { return inner_->stats(); }

 private:
  /// Times `call` into stats_[op] — also when it throws, so a failed
  /// collective still shows where its time went.
  template <class F>
  void timed(Op op, F&& call) {
    struct Account {
      OpStat& st;
      std::chrono::steady_clock::time_point t0 =
          std::chrono::steady_clock::now();
      ~Account() {
        st.calls += 1;
        st.seconds += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      }
    } account{stats_[op]};
    if (trace_id_ == 0) {
      call();
      return;
    }
    eccheck::obs::ScopedTraceContext ctx(trace_id_, parent_span_);
    eccheck::obs::ScopedSpan span(std::string("fabric.") + kOpNames[op]);
    call();
  }

  eccheck::cluster::Fabric* inner_;
  std::array<OpStat, kOpCount> stats_{};
  eccheck::obs::StatsRegistry::CounterMap counters_before_;
  std::uint64_t trace_id_ = 0;
  std::uint64_t parent_span_ = 0;
};

}  // namespace fabricbench

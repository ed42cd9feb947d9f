// Collective communication over the virtual fabric.
//
// Distributed training frameworks move checkpoint data with the same
// collective primitives they train with (NCCL/Gloo, §V-A). These
// implementations move real bytes between node stores and emit timeline
// tasks, so both the data plane and the schedule are exercised:
//   broadcast      — root sends to every other participant (tree-free,
//                    matching GEMINI's group broadcast);
//   all_gather     — every participant ends with every shard;
//   ring_all_reduce— XOR-reduce (the only reduction the checkpoint layer
//                    needs) via the classic 2(p−1)-step ring: reduce-scatter
//                    then all-gather, 2·(p−1)/p of the payload per link.
// Each helper returns the finish TaskIds per participant.
//
// Sentinel convention: slots that never get a task — the root's slot in
// broadcast(), any slot of a single-node collective — hold kNoTask (-1).
// kNoTask is NOT a valid dependency: sim::Timeline::add_task rejects
// negative TaskIds with a CheckFailure, so splicing a raw result vector
// into a dep list fails fast instead of silently corrupting the schedule.
// Callers must either skip negative entries (the pattern in
// ckpt/base_gemini.cpp) or pass the vector through valid_tasks() first.
#pragma once

#include <functional>

#include "cluster/cluster.hpp"

namespace eccheck::cluster {

/// "No task was emitted for this slot" — see the sentinel convention above.
inline constexpr TaskId kNoTask = -1;

/// The entries of `tasks` that name real tasks (drops every kNoTask).
/// Use when splicing a collective's result into another op's dep list.
std::vector<TaskId> valid_tasks(const std::vector<TaskId>& tasks);

struct CollectiveOptions {
  bool idle_only = false;           ///< pack into training-idle NIC windows
  std::vector<TaskId> deps;         ///< released when these finish
  /// Timeline label and counter kind: each collective suffixes its own op
  /// (".bcast", ".ag", ".ar"), so its bytes land in net.<label>.<op>.*.
  std::string label = "collective";
};

/// Copy host(root)[key] to every other node in `nodes` under the same key.
/// Returns per-destination finish tasks (kNoTask for the root's slot).
std::vector<TaskId> broadcast(VirtualCluster& c, const std::vector<int>& nodes,
                              int root, const std::string& key,
                              const CollectiveOptions& opts = {});

/// Every node contributes host(node)[key_of(node)]; afterwards every node
/// holds all contributions. Implemented as a ring: p−1 steps, each node
/// forwarding the chunk it received last round.
std::vector<TaskId> all_gather(VirtualCluster& c,
                               const std::vector<int>& nodes,
                               const std::function<std::string(int)>& key_of,
                               const CollectiveOptions& opts = {});

/// XOR all-reduce of equal-size buffers host(node)[key]: afterwards every
/// node's buffer holds the XOR of all contributions. Ring reduce-scatter +
/// ring all-gather over per-node segments.
std::vector<TaskId> ring_all_reduce_xor(VirtualCluster& c,
                                        const std::vector<int>& nodes,
                                        const std::string& key,
                                        const CollectiveOptions& opts = {});

// ---- ring-segment geometry ------------------------------------------------
// Shared by the virtual collective above and the real-socket transport
// (net::SocketTransport), so both charge/move exactly the same bytes and a
// differential test can compare them bit-for-bit.

/// Contiguous slice of the buffer owned by ring segment `index` (0..p-1).
/// Segments partition [0, total) exactly; sizes differ by at most one byte
/// (the first `total % p` segments are one byte larger).
struct RingSegment {
  std::size_t offset = 0;
  std::size_t size = 0;
};
RingSegment ring_segment(std::size_t total, int p, int index);

/// Segment index that ring position `pos` transmits at step `t` of `phase`
/// (phase 0 = reduce-scatter, phase 1 = all-gather); the receiving position
/// (pos+1) mod p consumes the same index. After phase 0, position i owns the
/// fully reduced segment (i+1) mod p; after phase 1 everyone has everything.
int ring_send_segment(int p, int phase, int t, int pos);

}  // namespace eccheck::cluster

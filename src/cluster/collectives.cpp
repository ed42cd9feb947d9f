#include "cluster/collectives.hpp"

#include <algorithm>
#include <functional>

#include "gf/simd.hpp"

namespace eccheck::cluster {

std::vector<TaskId> valid_tasks(const std::vector<TaskId>& tasks) {
  std::vector<TaskId> out;
  out.reserve(tasks.size());
  for (TaskId t : tasks)
    if (t >= 0) out.push_back(t);
  return out;
}

RingSegment ring_segment(std::size_t total, int p, int index) {
  ECC_CHECK(p >= 1 && index >= 0 && index < p);
  const std::size_t pp = static_cast<std::size_t>(p);
  const std::size_t idx = static_cast<std::size_t>(index);
  const std::size_t base = total / pp;
  const std::size_t rem = total % pp;
  RingSegment seg;
  seg.size = base + (idx < rem ? 1 : 0);
  seg.offset = idx * base + std::min(idx, rem);
  return seg;
}

int ring_send_segment(int p, int phase, int t, int pos) {
  ECC_CHECK(p >= 1 && (phase == 0 || phase == 1));
  // Reduce-scatter: position i starts by sending its own segment i and walks
  // backwards; all-gather starts from the fully reduced segment (i+1) mod p.
  const int shift = (phase == 0 ? pos - t : pos + 1 - t);
  return ((shift % p) + p) % p;
}

std::vector<TaskId> broadcast(VirtualCluster& c, const std::vector<int>& nodes,
                              int root, const std::string& key,
                              const CollectiveOptions& opts) {
  const std::size_t bytes = c.host(root).get(key).size();
  std::vector<TaskId> finish(nodes.size(), kNoTask);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    int dst = nodes[i];
    if (dst == root) continue;
    finish[i] = c.net_send(root, dst, bytes, opts.deps, opts.idle_only,
                           opts.label + ".bcast");
    // Re-resolve both stores after the timed op (the rule stated at
    // cluster.cpp's send_buffer): its fault hook may have killed either end,
    // in which case host() throws and the in-flight bytes never land —
    // holding a Buffer& across net_send would instead dangle into the wiped
    // store of a killed root.
    c.host(dst).put(key, c.host(root).get(key).clone());
  }
  return finish;
}

std::vector<TaskId> all_gather(VirtualCluster& c,
                               const std::vector<int>& nodes,
                               const std::function<std::string(int)>& key_of,
                               const CollectiveOptions& opts) {
  const int p = static_cast<int>(nodes.size());
  ECC_CHECK(p >= 1);
  std::vector<TaskId> carry(nodes.size(), kNoTask);

  // Ring: at step t, node i forwards the chunk that originated at node
  // (i - t) mod p to its right neighbour.
  for (int t = 0; t < p - 1; ++t) {
    std::vector<TaskId> next(nodes.size(), kNoTask);
    for (int i = 0; i < p; ++i) {
      const int src = nodes[static_cast<std::size_t>(i)];
      const int dst = nodes[static_cast<std::size_t>((i + 1) % p)];
      const int origin = nodes[static_cast<std::size_t>(((i - t) % p + p) % p)];
      const std::string key = key_of(origin);
      std::vector<TaskId> deps = opts.deps;
      if (carry[static_cast<std::size_t>(i)] >= 0)
        deps.push_back(carry[static_cast<std::size_t>(i)]);
      TaskId send = c.net_send(src, dst, c.host(src).get(key).size(), deps,
                               opts.idle_only, opts.label + ".ag");
      c.host(dst).put(key, c.host(src).get(key).clone());
      next[static_cast<std::size_t>((i + 1) % p)] = send;
    }
    carry = std::move(next);
  }
  return carry;
}

std::vector<TaskId> ring_all_reduce_xor(VirtualCluster& c,
                                        const std::vector<int>& nodes,
                                        const std::string& key,
                                        const CollectiveOptions& opts) {
  const int p = static_cast<int>(nodes.size());
  ECC_CHECK(p >= 1);
  const std::size_t total = c.host(nodes[0]).get(key).size();
  for (int n : nodes) ECC_CHECK(c.host(n).get(key).size() == total);

  // Data plane: the reduced value is the XOR of all contributions; compute
  // it once, install everywhere after the timing tasks are scheduled. The
  // dispatched kernel is hoisted out of the per-node loop (all buffers are
  // `total` bytes — checked above).
  Buffer reduced(total, Buffer::Init::kZeroed);
  const gf::simd::Kernels& kernels = gf::simd::active();
  for (int n : nodes)
    kernels.xor_into(reduced.data(), c.host(n).get(key).data(), total);

  std::vector<TaskId> carry(nodes.size(), kNoTask);
  if (p > 1) {
    // Reduce-scatter then all-gather: 2(p-1) steps, with an XOR after every
    // reduce-scatter receive. Each step moves the *true* size of the segment
    // being forwarded (segments differ by up to one byte when p does not
    // divide total) — charging a rounded-up uniform segment would inflate
    // net.*.bytes and simulated time by up to p-1 partial segments per
    // phase. Aggregate volume is exactly 2(p-1)·total across the ring,
    // i.e. the closed-form 2(p-1)/p·total per node.
    for (int phase = 0; phase < 2; ++phase) {
      for (int t = 0; t < p - 1; ++t) {
        std::vector<TaskId> next(nodes.size(), kNoTask);
        for (int i = 0; i < p; ++i) {
          const int src = nodes[static_cast<std::size_t>(i)];
          const int dst = nodes[static_cast<std::size_t>((i + 1) % p)];
          const std::size_t seg_bytes =
              ring_segment(total, p, ring_send_segment(p, phase, t, i)).size;
          std::vector<TaskId> deps = opts.deps;
          if (carry[static_cast<std::size_t>(i)] >= 0)
            deps.push_back(carry[static_cast<std::size_t>(i)]);
          TaskId step = c.net_send(src, dst, seg_bytes, deps, opts.idle_only,
                                   opts.label + ".ar");
          if (phase == 0) step = c.cpu_xor(dst, seg_bytes, {step});
          next[static_cast<std::size_t>((i + 1) % p)] = step;
        }
        carry = std::move(next);
      }
    }
  }
  for (int n : nodes) c.host(n).put(key, reduced.clone());
  return carry;
}

}  // namespace eccheck::cluster

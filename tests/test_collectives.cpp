// Collective primitives: data correctness and timing structure.
#include <gtest/gtest.h>

#include "chaos/fault_plan.hpp"
#include "cluster/collectives.hpp"
#include "common/rng.hpp"

namespace eccheck::cluster {
namespace {

ClusterConfig cfg() {
  ClusterConfig c;
  c.num_nodes = 4;
  c.gpus_per_node = 1;
  c.nic_bandwidth = 100.0;  // 100 B/s for round numbers
  c.xor_bandwidth = 1e12;   // negligible compute
  return c;
}

Buffer rand_buf(std::size_t n, std::uint64_t seed) {
  Buffer b(n, Buffer::Init::kUninitialized);
  fill_random(b.span(), seed);
  return b;
}

TEST(Collectives, BroadcastDeliversToAll) {
  VirtualCluster c(cfg());
  Buffer payload = rand_buf(200, 1);
  c.host(2).put("blob", payload.clone());
  auto finish = broadcast(c, {0, 1, 2, 3}, 2, "blob");
  for (int n : {0, 1, 3}) EXPECT_EQ(c.host(n).get("blob"), payload);
  // Root's own slot has no task; others do.
  EXPECT_EQ(finish[2], -1);
  EXPECT_GE(finish[0], 0);
  // Root TX serialises the three sends: 3 x 2s.
  Seconds last = 0;
  for (TaskId t : finish)
    if (t >= 0) last = std::max(last, c.timeline().finish_time(t));
  EXPECT_DOUBLE_EQ(last, 6.0);
}

TEST(Collectives, AllGatherEveryoneHasEverything) {
  VirtualCluster c(cfg());
  std::vector<Buffer> blobs;
  for (int n = 0; n < 4; ++n) {
    blobs.push_back(rand_buf(100, 10 + static_cast<std::uint64_t>(n)));
    c.host(n).put("shard/" + std::to_string(n), blobs.back().clone());
  }
  auto key_of = [](int n) { return "shard/" + std::to_string(n); };
  auto finish = all_gather(c, {0, 1, 2, 3}, key_of);
  for (int n = 0; n < 4; ++n)
    for (int o = 0; o < 4; ++o)
      EXPECT_EQ(c.host(n).get(key_of(o)), blobs[static_cast<std::size_t>(o)])
          << n << " " << o;
  // Ring: p-1 = 3 sequential steps of 1s each on every link.
  Seconds last = 0;
  for (TaskId t : finish)
    if (t >= 0) last = std::max(last, c.timeline().finish_time(t));
  EXPECT_DOUBLE_EQ(last, 3.0);
}

TEST(Collectives, RingAllReduceXorValue) {
  VirtualCluster c(cfg());
  Buffer expect(400, Buffer::Init::kZeroed);
  for (int n = 0; n < 4; ++n) {
    Buffer b = rand_buf(400, 20 + static_cast<std::uint64_t>(n));
    xor_into(expect.span(), b.span());
    c.host(n).put("grad", std::move(b));
  }
  ring_all_reduce_xor(c, {0, 1, 2, 3}, "grad");
  for (int n = 0; n < 4; ++n) EXPECT_EQ(c.host(n).get("grad"), expect);
}

TEST(Collectives, RingAllReduceMovesTwiceMinusTwoSegments) {
  VirtualCluster c(cfg());
  for (int n = 0; n < 4; ++n) c.host(n).put("grad", rand_buf(400, 30));
  auto finish = ring_all_reduce_xor(c, {0, 1, 2, 3}, "grad");
  // 2(p-1) = 6 steps of seg = 100 bytes = 1s each, pipelined per link but
  // serialised along the ring dependency chain.
  Seconds last = 0;
  for (TaskId t : finish) last = std::max(last, c.timeline().finish_time(t));
  EXPECT_NEAR(last, 6.0, 1e-6);  // + negligible XOR compute per hop
}

TEST(Collectives, SingleNodeDegenerates) {
  VirtualCluster c(cfg());
  Buffer b = rand_buf(64, 5);
  c.host(0).put("x", b.clone());
  EXPECT_NO_THROW(broadcast(c, {0}, 0, "x"));
  EXPECT_NO_THROW(ring_all_reduce_xor(c, {0}, "x"));
  EXPECT_EQ(c.host(0).get("x"), b);
}

TEST(Collectives, RingSegmentsPartitionExactly) {
  for (std::size_t total : {0ul, 1ul, 7ul, 397ul, 400ul}) {
    for (int p : {1, 2, 3, 4, 7}) {
      std::size_t covered = 0;
      for (int s = 0; s < p; ++s) {
        RingSegment seg = ring_segment(total, p, s);
        EXPECT_EQ(seg.offset, covered);
        covered += seg.size;
      }
      EXPECT_EQ(covered, total) << total << " over " << p;
    }
  }
  // Every step of either phase transmits each segment index exactly once
  // across the ring (so the per-step aggregate volume is `total`).
  for (int p : {2, 3, 4, 5}) {
    for (int phase = 0; phase < 2; ++phase) {
      for (int t = 0; t < p - 1; ++t) {
        std::vector<bool> seen(static_cast<std::size_t>(p), false);
        for (int pos = 0; pos < p; ++pos) {
          int s = ring_send_segment(p, phase, t, pos);
          EXPECT_FALSE(seen[static_cast<std::size_t>(s)]);
          seen[static_cast<std::size_t>(s)] = true;
        }
      }
    }
  }
}

TEST(Collectives, RingAllReduceOddSizeValueAndClosedFormVolume) {
  VirtualCluster c(cfg());
  const std::size_t total = 397;  // prime: p never divides it
  Buffer expect(total, Buffer::Init::kZeroed);
  for (int n = 0; n < 4; ++n) {
    Buffer b = rand_buf(total, 40 + static_cast<std::uint64_t>(n));
    xor_into(expect.span(), b.span());
    c.host(n).put("grad", std::move(b));
  }
  const auto before = c.stats().counters();
  ring_all_reduce_xor(c, {0, 1, 2, 3}, "grad");
  for (int n = 0; n < 4; ++n) EXPECT_EQ(c.host(n).get("grad"), expect);
  const auto d = obs::StatsRegistry::delta(c.stats().counters(), before);
  // True per-step segments: aggregate ring volume is exactly 2(p-1)·total
  // (= p · the closed-form 2(p-1)/p·total per node), not 2(p-1)·p·⌈total/p⌉.
  const int p = 4;
  EXPECT_EQ(d.at("net.collective.ar.bytes"),
            2u * static_cast<std::uint64_t>(p - 1) * total);
  // One XOR per reduce-scatter receive, each of the received segment's size.
  EXPECT_EQ(d.at("cpu.xor.bytes"),
            static_cast<std::uint64_t>(p - 1) * total);
}

TEST(Collectives, BroadcastRootKilledMidFanoutAborts) {
  VirtualCluster c(cfg());
  Buffer payload = rand_buf(128, 9);
  c.host(0).put("blob", payload.clone());
  chaos::FaultPlan plan;
  c.set_fault_hook(&plan);
  // Fabric op 0 is the send to node 1; kill the root at op 1 (the send to
  // node 2), i.e. between fan-out sends.
  plan.arm({{1, 0}});
  EXPECT_THROW(broadcast(c, {0, 1, 2, 3}, 0, "blob"), CheckFailure);
  ASSERT_EQ(plan.fired().size(), 1u);
  EXPECT_FALSE(c.alive(0));
  // The first destination's bytes landed before the fault; nothing after
  // the kill arrived anywhere.
  EXPECT_EQ(c.host(1).get("blob"), payload);
  EXPECT_FALSE(c.host(2).contains("blob"));
  EXPECT_FALSE(c.host(3).contains("blob"));
  c.set_fault_hook(nullptr);
}

TEST(Collectives, NoTaskSentinelIsRejectedAsDependency) {
  VirtualCluster c(cfg());
  c.host(1).put("blob", rand_buf(64, 11));
  auto finish = broadcast(c, {0, 1, 2, 3}, 1, "blob");
  ASSERT_EQ(finish[1], kNoTask);
  // Splicing the raw vector (sentinel included) into a dep list fails fast…
  EXPECT_THROW(c.barrier(finish), CheckFailure);
  // …and valid_tasks() is the documented filter.
  auto deps = valid_tasks(finish);
  EXPECT_EQ(deps.size(), 3u);
  EXPECT_NO_THROW(c.barrier(deps));
}

TEST(Collectives, IdleOnlyRespectsCalendars) {
  VirtualCluster c(cfg());
  for (int n = 0; n < 4; ++n) c.set_nic_calendar(n, {{0.0, 10.0}});
  c.host(1).put("blob", rand_buf(100, 7));
  CollectiveOptions opts;
  opts.idle_only = true;
  auto finish = broadcast(c, {0, 1, 2, 3}, 1, "blob", opts);
  for (TaskId t : finish) {
    if (t < 0) continue;
    EXPECT_GE(c.timeline().task(t).start, 10.0);
  }
  for (int n = 0; n < 4; ++n) EXPECT_DOUBLE_EQ(c.nic_interference(n), 0.0);
}

}  // namespace
}  // namespace eccheck::cluster

// Differential suite for the fabric-generic ECCheck engine
// (core/fabric_engine.cpp): the SPMD save/load/prune protocol must produce
// byte-identical stores and bit-exact recovered shards whether it runs
//  * over cluster::VirtualFabric (one process drives all ranks), compared
//    against the original simulator engine (core/eccheck_engine.cpp), or
//  * over net::SocketTransport (one OS thread per rank here; one process
//    per rank in examples/transport_cli), compared against VirtualFabric.
// Also covers the torn-save contract (peer death mid-save fails fast and
// rolls the attempted version back) and FabricSession version retention.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/fabric.hpp"
#include "common/rng.hpp"
#include "core/eccheck_engine.hpp"
#include "core/fabric_engine.hpp"
#include "core/placement.hpp"
#include "core/session.hpp"
#include "dnn/checkpoint_gen.hpp"
#include "net/transport.hpp"

namespace eccheck {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/eccheck-fabtest-XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl), nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::vector<net::Endpoint> uds_endpoints(const TempDir& dir, int n) {
  std::vector<net::Endpoint> eps;
  for (int r = 0; r < n; ++r)
    eps.push_back(
        net::Endpoint::uds(dir.path + "/rank" + std::to_string(r) + ".sock"));
  return eps;
}

net::TransportOptions fast_opts(const TempDir& dir) {
  net::TransportOptions o;
  o.connect_timeout = net::Millis(500);
  o.connect_retries = 20;
  o.backoff_base = net::Millis(2);
  o.backoff_max = net::Millis(50);
  o.io_timeout = net::Millis(5000);
  o.remote_dir = dir.path + "/remote";
  return o;
}

using RankBody = std::function<void(int rank)>;

void run_ranks(int n, const RankBody& body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    threads.emplace_back([&, r] {
      try {
        body(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

using StoreImage = std::map<std::string, Buffer>;

StoreImage snapshot(cluster::Store& s) {
  StoreImage img;
  for (const std::string& key : s.keys_with_prefix(""))
    img.emplace(key, s.get(key).clone());
  return img;
}

void expect_identical(const StoreImage& got, const StoreImage& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  auto a = got.begin();
  auto b = want.begin();
  for (; a != got.end(); ++a, ++b) {
    ASSERT_EQ(a->first, b->first) << what;
    EXPECT_TRUE(a->second == b->second)
        << what << ": key '" << a->first << "' differs";
  }
}

// Shared shapes: n = k + m nodes, g workers per node, W = n·g workers.
constexpr int kK = 2;
constexpr int kM = 2;
constexpr int kNodes = kK + kM;

dnn::CheckpointGenConfig gen_config(int world, std::uint64_t seed) {
  dnn::CheckpointGenConfig cfg;
  cfg.model = dnn::make_model(dnn::ModelFamily::kGPT2, 96, 2, 6, "fabtest");
  cfg.model.vocab = 384;
  cfg.parallelism = {2, world / 2, 1};
  cfg.seed = seed;
  return cfg;
}

core::ECCheckConfig engine_config(bool flush = false) {
  core::ECCheckConfig cfg;
  cfg.k = kK;
  cfg.m = kM;
  cfg.packet_size = kib(16);
  cfg.flush_to_remote = flush;
  return cfg;
}

std::vector<const dnn::StateDict*> pointers(
    const std::vector<dnn::StateDict>& shards) {
  std::vector<const dnn::StateDict*> p;
  for (const auto& sd : shards) p.push_back(&sd);
  return p;
}

std::vector<std::uint64_t> digests_of(const std::vector<dnn::StateDict>& v) {
  std::vector<std::uint64_t> out;
  for (const auto& sd : v) out.push_back(sd.digest());
  return out;
}

cluster::ClusterConfig vc_config(int gpus, int nodes = kNodes) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.gpus_per_node = gpus;
  return cfg;
}

// ---------------------------------------------------------------------------
// VirtualFabric vs the original simulator engine: the anchor of the whole
// bit-exactness chain. Same shards, one engine.save() on one cluster and
// one fabric_save() on another — every node's store and the remote store
// must come out byte-identical, and the full kill/replace/load cycle must
// agree too.
// ---------------------------------------------------------------------------

TEST(FabricEngine, VirtualFabricSaveMatchesSimulatorEngineByteExact) {
  const int g = 2, W = kNodes * g;
  auto shards = dnn::make_sharded_checkpoint(gen_config(W, 7));
  const auto want = digests_of(shards);

  cluster::VirtualCluster sim(vc_config(g));
  core::ECCheckEngine engine(engine_config(/*flush=*/true));
  engine.save(sim, shards, 1);

  cluster::VirtualCluster fab_vc(vc_config(g));
  cluster::VirtualFabric fabric(fab_vc);
  core::fabric_save(fabric, engine_config(/*flush=*/true), pointers(shards),
                    1);

  for (int node = 0; node < kNodes; ++node)
    expect_identical(snapshot(fab_vc.host(node)), snapshot(sim.host(node)),
                     "node " + std::to_string(node) + " after save");
  expect_identical(snapshot(fab_vc.remote()), snapshot(sim.remote()),
                   "remote store after save");

  // Same failure on both, then simulator-load vs fabric-load.
  for (cluster::VirtualCluster* c : {&sim, &fab_vc}) {
    c->kill(1);
    c->kill(3);
    c->replace(1);
    c->replace(3);
  }
  std::vector<dnn::StateDict> sim_out, fab_out;
  auto sim_rep = engine.load(sim, 1, sim_out);
  auto fab_rep = core::fabric_load(fabric, engine_config(true), 1, fab_out);
  ASSERT_TRUE(sim_rep.success) << sim_rep.detail;
  ASSERT_TRUE(fab_rep.success) << fab_rep.detail;
  EXPECT_EQ(fab_rep.detail, sim_rep.detail);
  ASSERT_EQ(fab_out.size(), static_cast<std::size_t>(W));
  for (int w = 0; w < W; ++w)
    EXPECT_EQ(fab_out[static_cast<std::size_t>(w)].digest(),
              want[static_cast<std::size_t>(w)])
        << "worker " << w;
  for (int node = 0; node < kNodes; ++node)
    expect_identical(snapshot(fab_vc.host(node)), snapshot(sim.host(node)),
                     "node " + std::to_string(node) + " after load");
}

// ---------------------------------------------------------------------------
// Save traffic: every parity packet is XOR-reduced straight onto its parity
// node, so a full save moves exactly the simulator's accounted volume
// (core::actual_comm_volume) and no ring all-reduce bytes, and a packet
// slot that is pure padding travels nowhere.
// ---------------------------------------------------------------------------

/// One worker's shard: a single u8 tensor of `bytes` seeded bytes.
dnn::StateDict sized_shard(int w, std::size_t bytes) {
  dnn::StateDict sd;
  sd.metadata()["worker"] = std::int64_t{w};
  dnn::Tensor t(dnn::DType::kU8, {static_cast<std::int64_t>(bytes)});
  fill_random(t.bytes(), 1000 + static_cast<std::uint64_t>(w));
  sd.add_tensor("w" + std::to_string(w), std::move(t));
  return sd;
}

struct SaveTraffic {
  std::uint64_t send_bytes = 0;  ///< send_buffer payload bytes
  std::uint64_t ring_bytes = 0;  ///< ring all-reduce bytes
};

/// Full-membership fabric_save of `shards` as version 1 on a fresh
/// VirtualFabric; returns the save's traffic.
SaveTraffic traffic_of_save(cluster::VirtualFabric& fabric,
                            const core::ECCheckConfig& cfg,
                            const std::vector<dnn::StateDict>& shards) {
  const auto rep = core::fabric_save(fabric, cfg, pointers(shards), 1);
  SaveTraffic t;
  auto it = rep.stats.find("net.send.bytes");
  if (it != rep.stats.end()) t.send_bytes = it->second;
  it = rep.stats.find("net.collective.ar.bytes");
  if (it != rep.stats.end()) t.ring_bytes = it->second;
  return t;
}

core::Placement placement_of(int k, int m, int g) {
  core::PlacementConfig pc;
  pc.num_nodes = k + m;
  pc.gpus_per_node = g;
  pc.k = k;
  pc.m = m;
  return core::plan_placement(pc);
}

core::ECCheckConfig shape_config(int k, int m) {
  core::ECCheckConfig cfg;
  cfg.k = k;
  cfg.m = m;
  cfg.packet_size = kib(4);
  return cfg;
}

TEST(FabricEngine, FullSaveMovesExactlyTheDirectReduceVolume) {
  struct Shape {
    int k, m, g;
  };
  for (const Shape sh : {Shape{2, 2, 1}, Shape{2, 2, 2}, Shape{3, 1, 3},
                         Shape{2, 3, 2}}) {
    SCOPED_TRACE("k=" + std::to_string(sh.k) + " m=" + std::to_string(sh.m) +
                 " g=" + std::to_string(sh.g));
    const core::ECCheckConfig cfg = shape_config(sh.k, sh.m);
    const std::size_t P = cfg.packet_size;
    const std::size_t B = 4;
    const int n = sh.k + sh.m, W = n * sh.g;
    std::vector<dnn::StateDict> shards;
    for (int w = 0; w < W; ++w)
      shards.push_back(sized_shard(w, (B - 1) * P + 100));  // B packets each

    cluster::VirtualCluster vc(vc_config(sh.g, n));
    cluster::VirtualFabric fabric(vc);
    const SaveTraffic t = traffic_of_save(fabric, cfg, shards);
    const core::Placement plan = placement_of(sh.k, sh.m, sh.g);
    EXPECT_EQ(static_cast<double>(t.send_bytes),
              core::actual_comm_volume(plan, static_cast<double>(B * P))
                  .total());
    EXPECT_EQ(t.ring_bytes, 0u);

    std::vector<dnn::StateDict> out;
    ASSERT_TRUE(core::fabric_load(fabric, cfg, 1, out).success);
    EXPECT_EQ(digests_of(out), digests_of(shards));
  }
}

TEST(FabricEngine, PaddingSlotsShipNothing) {
  const int k = 2, m = 2, g = 2, n = k + m, W = n * g;
  const core::ECCheckConfig cfg = shape_config(k, m);
  const std::size_t P = cfg.packet_size;
  // Real packets per worker; B = 3. Group j = 1 pairs workers 1 and 5, both
  // a single packet, so its parity packets 1 and 2 have no real
  // participant at all.
  const std::vector<std::size_t> used = {3, 1, 2, 3, 2, 1, 3, 2};
  const std::size_t B = 3;
  std::vector<dnn::StateDict> shards;
  for (int w = 0; w < W; ++w)
    shards.push_back(sized_shard(
        w, (used[static_cast<std::size_t>(w)] - 1) * P + 1 + 13 * w));

  cluster::VirtualCluster vc(vc_config(g, n));
  cluster::VirtualFabric fabric(vc);
  const SaveTraffic t = traffic_of_save(fabric, cfg, shards);
  EXPECT_EQ(t.ring_bytes, 0u);

  // Each padding slot (w, b) drops its relocation send (when w is not on
  // its chunk's data node) and its partial send to every parity node that
  // is not w's own node.
  const core::Placement plan = placement_of(k, m, g);
  std::uint64_t saved = 0;
  for (int w = 0; w < W; ++w) {
    const int node = w / g;
    std::uint64_t per_slot =
        node != plan.data_nodes[static_cast<std::size_t>(
                    plan.chunk_of_worker(w))]
            ? 1
            : 0;
    for (int pnode : plan.parity_nodes) per_slot += pnode != node ? 1 : 0;
    saved += per_slot * (B - used[static_cast<std::size_t>(w)]) * P;
  }
  ASSERT_GT(saved, 0u);
  EXPECT_EQ(static_cast<double>(t.send_bytes),
            core::actual_comm_volume(plan, static_cast<double>(B * P))
                    .total() -
                static_cast<double>(saved));

  // The stores still match the simulator engine's, padding included.
  cluster::VirtualCluster sim(vc_config(g, n));
  core::ECCheckEngine(cfg).save(sim, shards, 1);
  for (int node = 0; node < n; ++node)
    expect_identical(snapshot(vc.host(node)), snapshot(sim.host(node)),
                     "node " + std::to_string(node));
}

// ---------------------------------------------------------------------------
// Degraded save: with one rank dead, each survivor must end up holding
// exactly what a full-membership save of the same shards leaves on it
// (adopted participants pre-accumulate on the adopter; a dead parity node
// gets no reduce), and the replaced rank's row must decode bit-exact.
// ---------------------------------------------------------------------------

TEST(FabricEngine, DegradedSaveMatchesFullSaveOnEverySurvivor) {
  for (int g : {1, 2}) {
    const int W = kNodes * g;
    auto shards = dnn::make_sharded_checkpoint(gen_config(W, 31));
    const auto want = digests_of(shards);
    const core::ECCheckConfig cfg = engine_config();

    cluster::VirtualCluster full_vc(vc_config(g));
    cluster::VirtualFabric full(full_vc);
    core::fabric_save(full, cfg, pointers(shards), 1);

    for (int dead = 0; dead < kNodes; ++dead) {
      SCOPED_TRACE("g=" + std::to_string(g) + " dead=" + std::to_string(dead));
      std::vector<int> alive;
      for (int node = 0; node < kNodes; ++node)
        if (node != dead) alive.push_back(node);
      cluster::VirtualCluster vc(vc_config(g));
      cluster::VirtualFabric fabric(vc);
      vc.kill(dead);
      core::fabric_save(fabric, cfg, pointers(shards), 1,
                        core::Membership::of(alive));
      for (int node : alive)
        expect_identical(snapshot(vc.host(node)), snapshot(full_vc.host(node)),
                         "survivor " + std::to_string(node));

      vc.replace(dead);
      std::vector<dnn::StateDict> out;
      const auto rep = core::fabric_load(fabric, cfg, 1, out);
      ASSERT_TRUE(rep.success) << rep.detail;
      EXPECT_EQ(digests_of(out), want);
    }
  }
}

TEST(FabricEngine, EngineInterfaceDispatchesFabricOverloads) {
  const int g = 1, W = kNodes * g;
  auto shards = dnn::make_sharded_checkpoint(gen_config(W, 3));
  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric fabric(vc);
  core::ECCheckEngine eccheck(engine_config());
  ckpt::CheckpointEngine& engine = eccheck;  // through the base interface
  engine.save(fabric, pointers(shards), 1);
  std::vector<dnn::StateDict> out;
  EXPECT_TRUE(engine.load(fabric, 1, out).success);
  EXPECT_EQ(digests_of(out), digests_of(shards));
}

// ---------------------------------------------------------------------------
// Socket transport vs VirtualFabric: the same FabricSession sequence —
// three saves under a retention window of two (so version 1 is pruned),
// SIGKILL-equivalent peer replacement, recovery — over UDS threads and over
// the simulator, compared store-for-store.
// ---------------------------------------------------------------------------

void session_sequence(core::FabricSession& session, cluster::Fabric& fabric,
                      int g, const std::function<void()>& fail_and_replace) {
  const int W = fabric.world_size() * g;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    std::vector<dnn::StateDict> mine;
    for (int w : session.driven_workers())
      mine.push_back(dnn::make_worker_state_dict(gen_config(W, seed), w));
    session.save(pointers(mine));
  }
  fail_and_replace();
}

std::vector<std::uint64_t> expected_digests(int W, std::uint64_t seed) {
  std::vector<std::uint64_t> d;
  for (int w = 0; w < W; ++w)
    d.push_back(dnn::make_worker_state_dict(gen_config(W, seed), w).digest());
  return d;
}

TEST(FabricEngine, SocketSessionCycleMatchesVirtualFabricByteExact) {
  const int g = 2, W = kNodes * g;
  const std::vector<int> replaced = {1, 3};
  const auto want = expected_digests(W, 23);  // newest surviving version

  TempDir dir;
  auto eps = uds_endpoints(dir, kNodes);
  std::vector<StoreImage> socket_imgs(kNodes);
  std::vector<std::vector<std::uint64_t>> socket_digests(kNodes);
  std::vector<std::int64_t> socket_versions(kNodes, -1);
  std::latch saved(kNodes), rebuilt(kNodes);

  run_ranks(kNodes, [&](int rank) {
    auto fabric =
        std::make_unique<net::SocketTransport>(rank, eps, fast_opts(dir));
    const bool is_replaced =
        std::find(replaced.begin(), replaced.end(), rank) != replaced.end();
    {
      core::FabricSession session(*fabric, engine_config(), g,
                                  /*retain_versions=*/2);
      session_sequence(session, *fabric, g, [&] {
        saved.arrive_and_wait();
        if (is_replaced) {
          fabric.reset();  // the process dies; volatile store is gone
          fabric = std::make_unique<net::SocketTransport>(rank, eps,
                                                          fast_opts(dir));
        } else {
          for (int dead : replaced) fabric->reset_peer(dead);
        }
        rebuilt.arrive_and_wait();
      });
    }
    // Recovery runs in a fresh session (a restarted job would not carry the
    // old one), including on the surviving ranks.
    core::FabricSession session(*fabric, engine_config(), g, 2);
    std::vector<dnn::StateDict> out;
    auto r = session.load(out);
    ASSERT_TRUE(r.report.success) << "rank " << rank << ": "
                                  << r.report.detail;
    socket_versions[static_cast<std::size_t>(rank)] = r.version;
    socket_digests[static_cast<std::size_t>(rank)] = digests_of(out);
    socket_imgs[static_cast<std::size_t>(rank)] =
        snapshot(fabric->store(rank));
  });

  // Reference: byte-identical sequence over the simulator.
  cluster::VirtualCluster vc(vc_config(g));
  cluster::VirtualFabric fabric(vc);
  std::vector<std::uint64_t> ref_digests;
  std::int64_t ref_version = -1;
  {
    core::FabricSession session(fabric, engine_config(), g, 2);
    session_sequence(session, fabric, g, [&] {
      for (int dead : replaced) vc.kill(dead);
      for (int dead : replaced) vc.replace(dead);
    });
  }
  {
    core::FabricSession session(fabric, engine_config(), g, 2);
    std::vector<dnn::StateDict> out;
    auto r = session.load(out);
    ASSERT_TRUE(r.report.success) << r.report.detail;
    ref_version = r.version;
    ref_digests = digests_of(out);
  }
  EXPECT_EQ(ref_version, 3);  // version 1 pruned, 2 retained, 3 newest
  EXPECT_EQ(ref_digests, want);

  for (int rank = 0; rank < kNodes; ++rank) {
    EXPECT_EQ(socket_versions[static_cast<std::size_t>(rank)], ref_version)
        << "rank " << rank;
    // Each socket rank recovered its own g shards; the reference holds all.
    const auto& got = socket_digests[static_cast<std::size_t>(rank)];
    ASSERT_EQ(got.size(), static_cast<std::size_t>(g)) << "rank " << rank;
    for (int l = 0; l < g; ++l)
      EXPECT_EQ(got[static_cast<std::size_t>(l)],
                want[static_cast<std::size_t>(rank * g + l)])
          << "rank " << rank << " shard " << l;
    expect_identical(socket_imgs[static_cast<std::size_t>(rank)],
                     snapshot(vc.host(rank)),
                     "rank " + std::to_string(rank) + " store");
  }
}

TEST(FabricEngine, TcpSessionRecoversByteExact) {
  const int g = 1, W = kNodes * g;
  const auto want = expected_digests(W, 55);

  TempDir dir;
  // TCP with ephemeral ports: bind all listeners on port 0 up front, then
  // exchange the real ports via set_peers() — the documented handshake.
  std::vector<net::Endpoint> placeholder(
      kNodes, net::Endpoint::tcp("127.0.0.1", 0));
  std::vector<std::unique_ptr<net::SocketTransport>> transports;
  std::vector<net::Endpoint> real;
  for (int r = 0; r < kNodes; ++r) {
    transports.push_back(std::make_unique<net::SocketTransport>(
        r, placeholder, fast_opts(dir)));
    real.push_back(transports.back()->listen_endpoint());
  }
  for (auto& t : transports) t->set_peers(real);

  std::vector<std::vector<std::uint64_t>> got(kNodes);
  run_ranks(kNodes, [&](int rank) {
    net::SocketTransport& fabric = *transports[static_cast<std::size_t>(rank)];
    core::FabricSession session(fabric, engine_config(), g, 2);
    std::vector<dnn::StateDict> mine;
    mine.push_back(dnn::make_worker_state_dict(gen_config(W, 55), rank));
    session.save(pointers(mine));
    std::vector<dnn::StateDict> out;
    auto r = session.load(out);
    ASSERT_TRUE(r.report.success) << r.report.detail;
    got[static_cast<std::size_t>(rank)] = digests_of(out);
  });
  for (int rank = 0; rank < kNodes; ++rank) {
    ASSERT_EQ(got[static_cast<std::size_t>(rank)].size(), 1u);
    EXPECT_EQ(got[static_cast<std::size_t>(rank)][0],
              want[static_cast<std::size_t>(rank)]);
  }
}

// ---------------------------------------------------------------------------
// Torn save: a peer that dies before participating in a save must surface
// as CheckFailure on every survivor within the io-timeout budget (never a
// hang), the torn version must be rolled back, and recovery must land on
// the previous committed version.
// ---------------------------------------------------------------------------

TEST(FabricEngine, TornSaveFailsFastRollsBackAndRecoversOlderVersion) {
  const int g = 1, W = kNodes * g;
  const int victim = 1;
  const auto want = expected_digests(W, 77);

  TempDir dir;
  auto eps = uds_endpoints(dir, kNodes);
  std::latch ready(kNodes), torn(kNodes - 1), replaced(kNodes);
  std::vector<std::int64_t> versions(kNodes, -1);
  std::vector<std::vector<std::uint64_t>> got(kNodes);

  run_ranks(kNodes, [&](int rank) {
    auto fabric =
        std::make_unique<net::SocketTransport>(rank, eps, fast_opts(dir));
    core::FabricSession session(*fabric, engine_config(), g, 2);
    auto my_shard = [&](std::uint64_t seed) {
      std::vector<dnn::StateDict> mine;
      mine.push_back(dnn::make_worker_state_dict(gen_config(W, seed), rank));
      return mine;
    };
    {
      auto mine = my_shard(77);
      session.save(pointers(mine));
    }
    ready.arrive_and_wait();

    if (rank == victim) {
      fabric.reset();  // dies before save(v2) — never enters the collective
      torn.wait();     // survivors observed the failure
      fabric = std::make_unique<net::SocketTransport>(rank, eps,
                                                      fast_opts(dir));
    } else {
      const auto t0 = std::chrono::steady_clock::now();
      auto mine = my_shard(78);
      EXPECT_THROW(session.save(pointers(mine)), CheckFailure)
          << "rank " << rank;
      const auto waited = std::chrono::steady_clock::now() - t0;
      EXPECT_LT(waited, std::chrono::seconds(30))
          << "rank " << rank << " did not fail fast";
      // The torn version left nothing behind on this rank.
      EXPECT_TRUE(
          fabric->store(rank).keys_with_prefix("ec/2/").empty())
          << "rank " << rank;
      EXPECT_TRUE(
          fabric->store(rank).keys_with_prefix("tmp/").empty())
          << "rank " << rank;
      // The aborted collective may have left half-delivered frames between
      // the survivors too — every survivor re-pools all connections.
      fabric->reset_all_peers();
      torn.count_down();
    }
    replaced.arrive_and_wait();

    // Fresh session on every rank (as after a job restart): recovery must
    // agree on version 1 and reproduce its bytes.
    core::FabricSession fresh(*fabric, engine_config(), g, 2);
    std::vector<dnn::StateDict> out;
    auto r = fresh.load(out);
    ASSERT_TRUE(r.report.success) << "rank " << rank << ": "
                                  << r.report.detail;
    versions[static_cast<std::size_t>(rank)] = r.version;
    got[static_cast<std::size_t>(rank)] = digests_of(out);

    // And the next save must work again, agreeing on version 2.
    auto mine = my_shard(79);
    fresh.save(pointers(mine));
    EXPECT_EQ(fresh.latest_version(), 2) << "rank " << rank;
  });

  for (int rank = 0; rank < kNodes; ++rank) {
    EXPECT_EQ(versions[static_cast<std::size_t>(rank)], 1) << "rank " << rank;
    ASSERT_EQ(got[static_cast<std::size_t>(rank)].size(), 1u);
    EXPECT_EQ(got[static_cast<std::size_t>(rank)][0],
              want[static_cast<std::size_t>(rank)])
        << "rank " << rank;
  }
}

// ---------------------------------------------------------------------------
// Remote fallback over the fabric: flush-to-remote on save, then more than
// m nodes lose their volatile stores — recovery must refetch from the
// file-backed remote store, byte-exact.
// ---------------------------------------------------------------------------

TEST(FabricEngine, RemoteFallbackRecoversAfterCatastrophicLoss) {
  const int g = 1, W = kNodes * g;
  const std::vector<int> dead = {0, 1, 2};  // > m = 2 failures
  const auto want = expected_digests(W, 91);

  TempDir dir;
  auto eps = uds_endpoints(dir, kNodes);
  std::latch saved(kNodes), rebuilt(kNodes);
  std::vector<std::vector<std::uint64_t>> got(kNodes);

  run_ranks(kNodes, [&](int rank) {
    auto fabric =
        std::make_unique<net::SocketTransport>(rank, eps, fast_opts(dir));
    const bool is_dead =
        std::find(dead.begin(), dead.end(), rank) != dead.end();
    {
      core::FabricSession session(*fabric, engine_config(/*flush=*/true), g,
                                  2);
      std::vector<dnn::StateDict> mine;
      mine.push_back(dnn::make_worker_state_dict(gen_config(W, 91), rank));
      session.save(pointers(mine));
    }
    saved.arrive_and_wait();
    if (is_dead) {
      fabric.reset();
      fabric = std::make_unique<net::SocketTransport>(rank, eps,
                                                      fast_opts(dir));
    } else {
      for (int d : dead) fabric->reset_peer(d);
    }
    rebuilt.arrive_and_wait();

    core::FabricSession session(*fabric, engine_config(true), g, 2);
    std::vector<dnn::StateDict> out;
    auto r = session.load(out);
    ASSERT_TRUE(r.report.success) << "rank " << rank << ": "
                                  << r.report.detail;
    EXPECT_NE(r.report.detail.find("remote fallback"), std::string::npos)
        << "rank " << rank << ": " << r.report.detail;
    got[static_cast<std::size_t>(rank)] = digests_of(out);
  });
  for (int rank = 0; rank < kNodes; ++rank) {
    ASSERT_EQ(got[static_cast<std::size_t>(rank)].size(), 1u);
    EXPECT_EQ(got[static_cast<std::size_t>(rank)][0],
              want[static_cast<std::size_t>(rank)])
        << "rank " << rank;
  }
}

}  // namespace
}  // namespace eccheck

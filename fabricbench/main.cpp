// fabricbench: the repo benchmark — wall-clock of real multi-process
// ECCheck saves and loads over Unix-domain sockets, with each layer's
// share measured beside it from outside the program.
//
//   fabricbench --workload full_save|sparse_delta|recover --seed N
//               --seconds S --trace 0|1 [--size tiny] [--out DIR]
//               [--fault corrupt-restored]
//
// The parent process forks kRanks single-threaded rank processes
// (rank.cpp), each holding one SocketTransport, and runs the workload as a
// closed loop: it
// sends one collective to every rank, waits for all replies, and sends the
// next — one operation outstanding. A sample is the slowest rank's wall
// time for that collective. --trace 0 prints the end-to-end metrics;
// --trace 1 alternates traced and untraced operations and prints the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// Exit status is 0 only when every operation succeeded and every restored
// shard matched its digest. NOTES.md explains the workloads and metrics.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "channel.hpp"
#include "common/rng.hpp"
#include "core/placement.hpp"
#include "net/socket.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/distributed.hpp"
#include "obs/json.hpp"
#include "rank.hpp"
#include "timed_fabric.hpp"
#include "workload.hpp"

namespace fabricbench {
namespace {

using namespace eccheck;
using Clock = std::chrono::steady_clock;

struct Metric {
  const char* name;
  const char* unit;
};

// Printed by --trace 0; BENCHMARK.json lists the same names and units.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"save_s_p50", "s"},
    {"ckpt_gib_s", "GiB/s"},
    {"load_s_p50", "s"},
    {"resume_s_p50", "s"},
    {"wire_bytes_per_ckpt_byte", "ratio"},
    {"peak_rss_mib", "MiB"},
};

// Fabric ops reported per layer (TimedFabric::kOpNames minus net_send,
// which the checkpoint protocol never calls).
constexpr const char* kNetOps[] = {"ring_all_reduce_xor", "send_buffer",
                                   "send_buffers",        "all_gather",
                                   "broadcast",           "barrier"};

// Printed by --trace 1. Unqualified names are the critical (slowest) rank's
// value per operation; sum.* are summed over ranks. stall_s_p50 (the
// engine's step-1 snapshot time, from the untraced saves) sits here rather
// than among the end-to-end metrics: it is ~10 ms, mostly first-touch page
// faults, and its spread over 10 runs on a shared 4-vCPU host reached 0.26,
// more than a 0.25 regression bound can absorb.
constexpr Metric kPerLayer[] = {
    {"stall_s_p50", "s"},
    {"net.ring_all_reduce_xor.s", "s"},
    {"net.ring_all_reduce_xor.calls", "count"},
    {"sum.net.ring_all_reduce_xor.s", "s"},
    {"net.send_buffer.s", "s"},
    {"net.send_buffer.calls", "count"},
    {"sum.net.send_buffer.s", "s"},
    {"net.send_buffers.s", "s"},
    {"net.send_buffers.calls", "count"},
    {"sum.net.send_buffers.s", "s"},
    {"net.all_gather.s", "s"},
    {"net.all_gather.calls", "count"},
    {"sum.net.all_gather.s", "s"},
    {"net.broadcast.s", "s"},
    {"net.broadcast.calls", "count"},
    {"sum.net.broadcast.s", "s"},
    {"net.barrier.s", "s"},
    {"net.barrier.calls", "count"},
    {"sum.net.barrier.s", "s"},
    {"net.ack_wait.s", "s"},
    {"sum.net.ack_wait.s", "s"},
    {"net.frames", "count"},
    {"sum.net.frames", "count"},
    {"net.wire_bytes", "bytes"},
    {"sum.net.wire_bytes", "bytes"},
    {"net.retry.count", "count"},
    {"net.io_error.count", "count"},
    {"core.self.s", "s"},
    {"sum.core.self.s", "s"},
    {"core.decompose.s", "s"},
    {"core.pack.s", "s"},
    {"core.delta.hit_ratio", "ratio"},
    {"core.delta.dirty_ratio", "ratio"},
    {"core.delta.extents", "count"},
    {"ec.encode_partial.gbs", "GB/s"},
    {"ec.encode_partial.s", "s"},
    {"ec.update_parity.gbs", "GB/s"},
    {"ec.update_parity.s", "s"},
    {"ec.decode.gbs", "GB/s"},
    {"ec.decode.s", "s"},
    {"gf.mul_region.gbs", "GB/s"},
    {"gf.xor_into.gbs", "GB/s"},
    {"common.crc64.gbs", "GB/s"},
    {"common.crc64.est_s", "s"},
    {"sum.common.crc64.est_s", "s"},
    {"common.memcpy.gbs", "GB/s"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.tracer.dropped", "count"},
};

constexpr int kSetups = 3;          // set-ups per --trace 0 run (median)
constexpr int kMinSamples = 3;      // primary samples, whatever --seconds
constexpr int kSecondaryLoads = 9;  // after a save loop (~0.3 s each)
constexpr int kSecondarySaves = 9;  // after a recover loop (~2 s each);
                                    // spans ~18 s, so a host slowdown of a
                                    // few seconds cannot move their median
constexpr int kReplyTimeoutMs = 60000;

/// A rank died, hung, or broke the command protocol: no trustworthy
/// result can be printed.
struct RankLost : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A collective failed (threw, success=false, or digest mismatch): counted
/// in `failed`, and the run stops and reports.
struct OpFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// Rank processes
// ---------------------------------------------------------------------------

class RankSet {
 public:
  /// Forks the ranks and waits until each has generated its shard.
  RankSet(const BenchConfig& cfg, const std::vector<net::Endpoint>& peers) {
    try {
      spawn(cfg, peers);
    } catch (...) {
      kill_all();  // the destructor does not run for a throwing constructor
      throw;
    }
  }
  RankSet(const RankSet&) = delete;
  RankSet& operator=(const RankSet&) = delete;
  ~RankSet() { kill_all(); }

  const Fields& ready(int r) const {
    return procs_[static_cast<std::size_t>(r)].ready;
  }

  /// One command to every rank, then every rank's reply.
  std::vector<Fields> all(const Fields& cmd) {
    const std::string line = encode_fields(cmd);
    for (std::size_t r = 0; r < procs_.size(); ++r)
      if (!procs_[r].ch.send(line))
        throw RankLost("rank " + std::to_string(r) + " is gone (" + line + ")");
    std::vector<Fields> replies;
    for (std::size_t r = 0; r < procs_.size(); ++r) {
      std::string reply;
      if (!procs_[r].ch.receive(&reply, kReplyTimeoutMs))
        throw RankLost("rank " + std::to_string(r) + " did not answer (" +
                       line + ")");
      replies.push_back(decode_fields(reply));
    }
    return replies;
  }

  /// Orderly exit of every rank; returns the largest ru_maxrss in KiB.
  long quit() {
    for (Proc& p : procs_) p.ch.send("cmd=quit");
    long peak = 0;
    for (Proc& p : procs_) {
      const auto deadline = Clock::now() + std::chrono::seconds(30);
      int status = 0;
      rusage ru{};
      while (::wait4(p.pid, &status, WNOHANG, &ru) == 0) {
        if (Clock::now() > deadline) {
          ::kill(p.pid, SIGKILL);
          ::wait4(p.pid, &status, 0, &ru);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      p.pid = -1;
      p.ch.close();
      peak = std::max(peak, static_cast<long>(ru.ru_maxrss));
    }
    return peak;
  }

 private:
  struct Proc {
    pid_t pid;
    Channel ch;
    Fields ready;
  };

  void spawn(const BenchConfig& cfg, const std::vector<net::Endpoint>& peers) {
    for (int r = 0; r < kRanks; ++r) {
      int down[2], up[2];
      if (::pipe(down) != 0 || ::pipe(up) != 0)
        throw RankLost("pipe() failed");
      std::fflush(nullptr);
      const pid_t pid = ::fork();
      if (pid < 0) throw RankLost("fork() failed");
      if (pid == 0) {
        ::close(down[1]);
        ::close(up[0]);
        for (Proc& p : procs_) p.ch.close();
        try {
          rank_main(cfg, r, peers, Channel(down[0], up[1]));
        } catch (...) {
        }
        std::_Exit(1);
      }
      ::close(down[0]);
      ::close(up[1]);
      procs_.push_back(Proc{pid, Channel(up[0], down[1]), {}});
    }
    for (int r = 0; r < kRanks; ++r) {
      Proc& p = procs_[static_cast<std::size_t>(r)];
      std::string line;
      if (!p.ch.receive(&line, kReplyTimeoutMs))
        throw RankLost("rank " + std::to_string(r) + " never became ready");
      p.ready = decode_fields(line);
      if (field_or(p.ready, "ready") != 1)
        throw RankLost("rank " + std::to_string(r) + ": " + line);
    }
  }

  void kill_all() {
    for (Proc& p : procs_) {
      if (p.pid > 0) {
        ::kill(p.pid, SIGKILL);
        ::waitpid(p.pid, nullptr, 0);
        p.pid = -1;
      }
      p.ch.close();
    }
  }

  std::vector<Proc> procs_;
};

// ---------------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------------

/// One collective as seen by every rank.
struct OpSample {
  std::vector<Fields> ranks;
  bool traced = false;
  bool is_save = false;
  double wall = 0;    ///< slowest rank's wall time
  double eng = 0;     ///< max over ranks of stall_time / resume_time
  /// The rank the others waited for: the most time outside the final
  /// barrier (every rank's wall ends at the same rendezvous).
  int critical = 0;

  double at(int r, const std::string& key) const {
    return field_or(ranks[static_cast<std::size_t>(r)], key);
  }
  double busy_s(int r) const { return at(r, "wall") - at(r, "fab.barrier.s"); }
  double fabric_s(int r) const {
    double s = 0;
    for (const char* op : TimedFabric::kOpNames)
      s += at(r, std::string("fab.") + op + ".s");
    return s;
  }
  bool delta_save() const {
    return is_save && at(0, "cnt.delta.save.count") > 0;
  }
};

class Bench {
 public:
  explicit Bench(const BenchConfig& cfg, std::string out_dir)
      : cfg_(cfg), ec_(ec_config(cfg)), out_dir_(std::move(out_dir)),
        run_dir_(out_dir_ + "/run-" + std::to_string(::getpid())),
        next_victim_(SplitMix64(cfg.seed).next_below(kRanks)) {
    core::PlacementConfig pc;
    pc.num_nodes = kRanks;
    pc.gpus_per_node = 1;
    pc.k = ec_.k;
    pc.m = ec_.m;
    data_nodes_ = core::plan_placement(pc).data_nodes;
  }

  int run();

 private:
  bool saves_primary() const { return cfg_.workload != Workload::kRecover; }

  OpSample op(RankSet& set, const char* cmd, bool traced);
  void command(RankSet& set, const Fields& cmd);
  void fail_one(RankSet& set);
  void warm_up(RankSet& set);
  void measure(RankSet& set);
  void merge_traces(RankSet& set);

  std::map<std::string, double> end_to_end() const;
  std::map<std::string, double> per_layer() const;
  void print_end_to_end(const std::map<std::string, double>& m) const;
  void print_per_layer(const std::map<std::string, double>& m) const;

  const BenchConfig cfg_;
  const core::ECCheckConfig ec_;
  const std::string out_dir_;
  const std::string run_dir_;
  std::size_t next_victim_;
  std::vector<int> data_nodes_;

  std::vector<double> setup_s_;
  std::vector<OpSample> primary_;    ///< the workload's own timed loop
  std::vector<OpSample> secondary_;  ///< the other op kind, fixed count
  std::vector<Fields> probes_;
  double ckpt_bytes_ = 0;      ///< Σ tensor_bytes over ranks
  double packets_ = 0;         ///< B: packets per worker (max over ranks)
  long peak_rss_kib_ = 0;
  double tracer_dropped_ = 0;
  int attempted_ = 0;
  int failed_ = 0;
};

OpSample Bench::op(RankSet& set, const char* cmd, bool traced) {
  OpSample s;
  s.traced = traced;
  s.is_save = std::string(cmd) == "save";
  s.ranks = set.all({{"cmd", cmd}, {"traced", traced ? "1" : "0"}});
  ++attempted_;
  std::string why;
  for (int r = 0; r < kRanks; ++r) {
    const Fields& f = s.ranks[static_cast<std::size_t>(r)];
    s.wall = std::max(s.wall, s.at(r, "wall"));
    if (s.busy_s(r) > s.busy_s(s.critical)) s.critical = r;
    s.eng = std::max(s.eng, s.at(r, "eng"));
    if (field_or(f, "ok") != 1)
      why += " rank" + std::to_string(r) + ":" +
             (f.count("err") ? f.at("err") : std::string("failed"));
    else if (f.count("digest_ok") && f.at("digest_ok") != "1")
      why += " rank" + std::to_string(r) + ":digest_mismatch";
  }
  if (!why.empty()) {
    ++failed_;
    throw OpFailed(std::string(cmd) + " failed:" + why);
  }
  return s;
}

void Bench::command(RankSet& set, const Fields& cmd) {
  for (const Fields& f : set.all(cmd))
    if (field_or(f, "ok") != 1)
      throw OpFailed(encode_fields(cmd) + " failed: " +
                     (f.count("err") ? f.at("err") : std::string("?")));
}

/// One data node loses its volatile state and comes back empty on the same
/// endpoint; the survivors drop their connections. The first victim is
/// chosen from the seed, then victims rotate over the data nodes, so every
/// run loses each data node equally often.
void Bench::fail_one(RankSet& set) {
  const int victim = data_nodes_[next_victim_++ % data_nodes_.size()];
  command(set, {{"cmd", "fail"}, {"victim", std::to_string(victim)}});
}

/// The operations that precede timing: they pay connection set-up and first
/// touch of every buffer, and leave the state the timed loop expects (a
/// delta base for sparse_delta, a committed version for recover).
void Bench::warm_up(RankSet& set) {
  command(set, {{"cmd", "setup"}});
  switch (cfg_.workload) {
    case Workload::kFullSave:
      // Two saves: the store holds two versions from the second save on,
      // so only then has every rank's heap reached its steady size.
      op(set, "save", false);
      op(set, "save", false);
      break;
    case Workload::kSparseDelta:
      op(set, "save", false);  // first save: full encode, becomes the base
      command(set, {{"cmd", "step"}});
      op(set, "save", false);  // first delta save
      break;
    case Workload::kRecover:
      op(set, "save", false);
      fail_one(set);
      op(set, "load", false);
      break;
  }
}

void Bench::measure(RankSet& set) {
  // Primary closed loop. With --trace 1 traced and untraced operations
  // alternate, so the tracing overhead is measured on the same state.
  const auto t0 = Clock::now();
  int traced = 0, untraced = 0;
  for (int i = 0;; ++i) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const bool enough = cfg_.trace ? traced >= 2 && untraced >= 2
                                   : untraced >= kMinSamples;
    if (elapsed >= cfg_.seconds && enough) break;
    const bool trace_this = cfg_.trace && i % 2 == 1;
    (trace_this ? traced : untraced) += 1;
    switch (cfg_.workload) {
      case Workload::kFullSave:
        primary_.push_back(op(set, "save", trace_this));
        break;
      case Workload::kSparseDelta:
        command(set, {{"cmd", "step"}});
        primary_.push_back(op(set, "save", trace_this));
        // After warm-up every save must take the delta path (hit ratio 1);
        // a silent fallback to the full encode would measure the wrong path.
        if (!primary_.back().delta_save()) {
          ++failed_;
          throw OpFailed("delta save fell back to a full encode");
        }
        break;
      case Workload::kRecover:
        fail_one(set);
        primary_.push_back(op(set, "load", trace_this));
        break;
    }
  }

  // Secondary ops, so every workload reports both saves and loads. After a
  // save loop: loads of the newest version with every rank intact, each
  // digest-checked against the shard last saved (the correctness gate).
  // After a recover loop: one untimed save that regrows the store to two
  // versions, timed saves of the recovered state, then one load that
  // checks them.
  if (saves_primary()) {
    for (int i = 0; i < kSecondaryLoads; ++i)
      secondary_.push_back(op(set, "load", false));
  } else {
    op(set, "save", false);
    for (int i = 0; i < kSecondarySaves; ++i)
      secondary_.push_back(op(set, "save", false));
    op(set, "load", false);
  }

  // The probes feed only the per-layer table.
  if (cfg_.trace) probes_ = set.all({{"cmd", "probe"}});
}

void Bench::merge_traces(RankSet& set) {
  std::vector<std::string> snaps;
  std::vector<std::int64_t> epoch_abs;
  std::vector<Fields> dumped =
      set.all({{"cmd", "dump"}, {"path", run_dir_ + "/snapshot"}});
  for (int r = 0; r < kRanks; ++r) {
    tracer_dropped_ += field_or(dumped[static_cast<std::size_t>(r)], "dropped");
    std::ifstream in(run_dir_ + "/snapshot.rank" + std::to_string(r));
    snaps.emplace_back(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    std::string err;
    const auto doc = obs::JsonValue::parse(snaps.back(), &err);
    if (!doc || !doc->find("clock_ns") || !doc->find("abs_ns"))
      throw RankLost("rank " + std::to_string(r) + " trace snapshot: " + err);
    epoch_abs.push_back(
        static_cast<std::int64_t>(doc->find("abs_ns")->as_number()) -
        static_cast<std::int64_t>(doc->find("clock_ns")->as_number()));
  }
  const std::int64_t base =
      *std::min_element(epoch_abs.begin(), epoch_abs.end());
  obs::ChromeTraceWriter w;
  for (int r = 0; r < kRanks; ++r) {
    std::string err;
    if (!obs::append_snapshot_to_trace(
            w, snaps[static_cast<std::size_t>(r)], "",
            epoch_abs[static_cast<std::size_t>(r)] - base, &err))
      throw RankLost("rank " + std::to_string(r) + " trace merge: " + err);
  }
  std::ostringstream os;
  w.write(os);
  const std::string path =
      out_dir_ + "/" + workload_name(cfg_.workload) + ".trace.json";
  std::ofstream(path) << os.str();
  const obs::MergedTraceCheck chk =
      obs::check_merged_trace(os.str(), kRanks, /*require_all_resolved=*/false);
  std::printf("trace: %s (%zu spans from %zu processes, %zu cross-process "
              "links%s)\n",
              path.c_str(), chk.spans, chk.processes, chk.cross_process_links,
              chk.ok ? "" : ("; check failed: " + chk.error).c_str());
}

int Bench::run() {
  std::filesystem::create_directories(run_dir_);
  std::vector<net::Endpoint> peers;
  for (int r = 0; r < kRanks; ++r)
    peers.push_back(
        net::Endpoint::uds(run_dir_ + "/r" + std::to_string(r) + ".sock"));

  std::string failure;
  bool lost = false;  // a rank died or hung: no trustworthy result
  try {
    // Set-up is timed from the moment every rank holds its generated
    // inputs until every rank finished its warm-up, repeated with fresh
    // processes; all but the last set are torn down again.
    const int setups = cfg_.trace ? 1 : kSetups;
    std::unique_ptr<RankSet> set;
    for (int i = 0; i < setups; ++i) {
      set = std::make_unique<RankSet>(cfg_, peers);
      const auto t0 = Clock::now();
      warm_up(*set);
      setup_s_.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
      if (i + 1 < setups) set->quit();
    }
    for (int r = 0; r < kRanks; ++r) {
      ckpt_bytes_ += field_or(set->ready(r), "tensor_bytes");
      packets_ = std::max(packets_, field_or(set->ready(r), "packets"));
    }
    try {
      measure(*set);
    } catch (const OpFailed& e) {
      failure = e.what();
    }
    if (cfg_.trace && failure.empty()) merge_traces(*set);
    peak_rss_kib_ = set->quit();
  } catch (const RankLost& e) {
    failure = e.what();
    lost = true;
  } catch (const OpFailed& e) {
    failure = e.what();  // during warm-up: nothing measured
  }
  std::error_code ec;
  std::filesystem::remove_all(run_dir_, ec);
  if (lost) {
    std::fprintf(stderr, "fabricbench: %s\n", failure.c_str());
    return 1;
  }

  std::printf("fabricbench: workload=%s seed=%llu seconds=%g trace=%d "
              "ranks=%d k=%d m=%d w=%d packet=%zu B ckpt=%.0f B "
              "packets/worker=%.0f\n",
              workload_name(cfg_.workload),
              static_cast<unsigned long long>(cfg_.seed), cfg_.seconds,
              cfg_.trace ? 1 : 0, kRanks, ec_.k, ec_.m, ec_.gf_width,
              ec_.packet_size, ckpt_bytes_, packets_);
  if (!failure.empty())
    std::fprintf(stderr, "fabricbench: %s\n", failure.c_str());

  std::map<std::string, double> metrics;
  if (cfg_.trace) {
    metrics = per_layer();
    print_per_layer(metrics);
  } else {
    metrics = end_to_end();
    print_end_to_end(metrics);
  }
  const bool correct = failure.empty() && failed_ == 0;
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << std::max(attempted_, 1)
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const Metric& m) {
    const double v = metrics.count(m.name) ? metrics.at(m.name) : 0;
    js << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << obs::json_number(std::isfinite(v) ? v : 0) << ", \"unit\": \""
       << m.unit << "\"}";
    first = false;
  };
  if (cfg_.trace)
    for (const Metric& m : kPerLayer) emit(m);
  else
    for (const Metric& m : kEndToEnd) emit(m);
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Engine-reported times (stall_time, resume_time): each rank's median over
/// the operations, then the slowest rank. A scheduling hiccup on one rank in
/// one operation then moves that rank's median a little, where a
/// per-operation max would take it whole.
double engine_p50(const std::vector<OpSample>& ops) {
  double slowest = 0;
  for (int r = 0; r < kRanks; ++r) {
    std::vector<double> per_rank;
    for (const OpSample& s : ops) per_rank.push_back(s.at(r, "eng"));
    slowest = std::max(slowest, median(per_rank));
  }
  return slowest;
}

std::map<std::string, double> Bench::end_to_end() const {
  const std::vector<OpSample>& saves = saves_primary() ? primary_ : secondary_;
  const std::vector<OpSample>& loads = saves_primary() ? secondary_ : primary_;
  auto walls = [](const std::vector<OpSample>& v) {
    std::vector<double> out;
    for (const OpSample& s : v) out.push_back(s.wall);
    return out;
  };
  std::map<std::string, double> m;
  m["setup_s"] = median(setup_s_);
  m["save_s_p50"] = median(walls(saves));
  m["stall_s_p50"] = engine_p50(saves);
  m["ckpt_gib_s"] = m["save_s_p50"] > 0
                        ? ckpt_bytes_ / double(1 << 30) / m["save_s_p50"]
                        : 0;
  m["load_s_p50"] = median(walls(loads));
  m["resume_s_p50"] = engine_p50(loads);
  std::vector<double> wire;
  for (const OpSample& s : primary_) {
    double bytes = 0;
    for (int r = 0; r < kRanks; ++r) bytes += s.at(r, "cnt.net.send.bytes");
    wire.push_back(ckpt_bytes_ > 0 ? bytes / ckpt_bytes_ : 0);
  }
  m["wire_bytes_per_ckpt_byte"] = median(wire);
  m["peak_rss_mib"] = static_cast<double>(peak_rss_kib_) / 1024.0;
  return m;
}

std::map<std::string, double> Bench::per_layer() const {
  std::vector<const OpSample*> traced, untraced;
  for (const OpSample& s : primary_)
    (s.traced ? traced : untraced).push_back(&s);
  std::map<std::string, double> m;
  if (traced.empty() || probes_.size() != static_cast<std::size_t>(kRanks))
    return m;

  // The run's critical rank (whose probes price the ec/common estimates):
  // the largest median time outside the final barrier.
  int crit = 0;
  double crit_busy = -1;
  for (int r = 0; r < kRanks; ++r) {
    std::vector<double> busy;
    for (const OpSample* s : traced) busy.push_back(s->busy_s(r));
    if (median(busy) > crit_busy) {
      crit_busy = median(busy);
      crit = r;
    }
  }
  auto probe = [&](int r, const std::string& key) {
    return field_or(probes_[static_cast<std::size_t>(r)], "probe." + key);
  };
  // Per-operation value on that operation's slowest rank, median over ops.
  auto at_crit = [&](auto&& value) {
    std::vector<double> v;
    for (const OpSample* s : traced) v.push_back(value(*s, s->critical));
    return median(v);
  };
  // Per-operation value summed over ranks, median over ops.
  auto summed = [&](auto&& value) {
    std::vector<double> v;
    for (const OpSample* s : traced) {
      double total = 0;
      for (int r = 0; r < kRanks; ++r) total += value(*s, r);
      v.push_back(total);
    }
    return median(v);
  };
  auto counter = [](std::string key) {
    return [key = std::move(key)](const OpSample& s, int r) {
      return s.at(r, key);
    };
  };

  for (const char* op : kNetOps) {
    const std::string stem = std::string("net.") + op;
    const std::string f = std::string("fab.") + op;
    m[stem + ".s"] = at_crit(counter(f + ".s"));
    m[stem + ".calls"] = at_crit(counter(f + ".n"));
    m["sum." + stem + ".s"] = summed(counter(f + ".s"));
  }
  auto ack_s = [](const OpSample& s, int r) {
    return s.at(r, "cnt.net.ack.wait_us") / 1e6;
  };
  m["net.ack_wait.s"] = at_crit(ack_s);
  m["sum.net.ack_wait.s"] = summed(ack_s);
  m["net.frames"] = at_crit(counter("cnt.net.send.count"));
  m["sum.net.frames"] = summed(counter("cnt.net.send.count"));
  m["net.wire_bytes"] = at_crit(counter("cnt.net.send.bytes"));
  m["sum.net.wire_bytes"] = summed(counter("cnt.net.send.bytes"));
  double retries = 0, io_errors = 0;
  for (const auto* v : {&primary_, &secondary_})
    for (const OpSample& s : *v)
      for (int r = 0; r < kRanks; ++r) {
        retries += s.at(r, "cnt.net.retry.count");
        io_errors += s.at(r, "cnt.net.io_error.count");
      }
  m["net.retry.count"] = retries;
  m["net.io_error.count"] = io_errors;

  std::vector<OpSample> plain_saves;
  for (const auto* v : {&primary_, &secondary_})
    for (const OpSample& s : *v)
      if (s.is_save && !s.traced) plain_saves.push_back(s);
  m["stall_s_p50"] = engine_p50(plain_saves);

  auto self_s = [](const OpSample& s, int r) {
    return s.at(r, "wall") - s.fabric_s(r);
  };
  m["core.self.s"] = at_crit(self_s);
  m["sum.core.self.s"] = summed(self_s);
  m["core.decompose.s"] = probe(crit, "decompose_s");
  m["core.pack.s"] = probe(crit, "pack_s");

  // Delta counters are bumped identically on every rank (the decision is
  // collective), so rank 0's view is the global one.
  std::vector<double> dirty, extents;
  double delta_saves = 0, saves = 0;
  for (const OpSample& s : primary_) {
    if (!s.is_save) continue;
    saves += 1;
    delta_saves += s.at(0, "cnt.delta.save.count");
    dirty.push_back(s.at(0, "cnt.delta.dirty.bytes") / ckpt_bytes_);
    extents.push_back(s.at(0, "cnt.delta.extents.count"));
  }
  m["core.delta.hit_ratio"] = saves > 0 ? delta_saves / saves : 0;
  m["core.delta.dirty_ratio"] = median(dirty);
  m["core.delta.extents"] = median(extents);

  // ec estimates: work the stripe shape implies per operation ÷ the
  // critical rank's probe rate. A full save multiplies each of the rank's
  // B packets into m rows; a delta save folds the dirty bytes into the m
  // parity rows (summed over parity ranks); a recover load rebuilds the
  // lost data row: W/k packet slots × B packets.
  const double P = static_cast<double>(ec_.packet_size);
  const double B = packets_;
  const double per_chunk = static_cast<double>(kRanks) / ec_.k;
  m["ec.encode_partial.gbs"] = probe(crit, "encode_partial_bps") / 1e9;
  m["ec.update_parity.gbs"] = probe(crit, "update_parity_bps") / 1e9;
  m["ec.decode.gbs"] = probe(crit, "decode_bps") / 1e9;
  m["ec.encode_partial.s"] = at_crit([&](const OpSample& s, int) {
    return s.is_save && !s.delta_save()
               ? ec_.m * B * P / probe(crit, "encode_partial_bps")
               : 0.0;
  });
  m["ec.update_parity.s"] = at_crit([&](const OpSample& s, int) {
    return s.delta_save() ? s.at(0, "cnt.delta.dirty.bytes") /
                                probe(crit, "update_parity_bps")
                          : 0.0;
  });
  m["ec.decode.s"] = at_crit([&](const OpSample& s, int) {
    return !s.is_save ? per_chunk * B * P / probe(crit, "decode_bps") : 0.0;
  });
  m["gf.mul_region.gbs"] = probe(crit, "mul_region_bps") / 1e9;
  m["gf.xor_into.gbs"] = probe(crit, "xor_into_bps") / 1e9;

  // CRC64 runs over every frame payload on both ends of the wire and over
  // the rank's stored chunk row (integrity sums on save, scrub on load).
  auto crc_s = [&](const OpSample& s, int r) {
    const double bytes = s.at(r, "cnt.net.send.bytes") +
                         s.at(r, "cnt.net.recv.bytes") + per_chunk * B * P;
    return bytes / probe(r, "crc64_bps");
  };
  m["common.crc64.gbs"] = probe(crit, "crc64_bps") / 1e9;
  m["common.crc64.est_s"] = at_crit(crc_s);
  m["sum.common.crc64.est_s"] = summed(crc_s);
  m["common.memcpy.gbs"] = probe(crit, "memcpy_bps") / 1e9;

  std::vector<double> tw, uw;
  for (const OpSample* s : traced) tw.push_back(s->wall);
  for (const OpSample* s : untraced) uw.push_back(s->wall);
  m["obs.trace_overhead_ratio"] =
      median(uw) > 0 ? median(tw) / median(uw) - 1 : 0;
  m["obs.tracer.dropped"] = tracer_dropped_;
  m["crit.rank"] = crit;
  return m;
}

/// "p<q> <value>" for the highest percentile with at least ten samples
/// beyond it, or why there is none.
std::string tail_text(const std::vector<double>& v) {
  char buf[96];
  if (v.size() <= 10) {
    std::snprintf(buf, sizeof buf, "n/a (n=%zu; a tail needs more than 10)",
                  v.size());
    return buf;
  }
  const int pct = static_cast<int>(
      std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(v.size()))));
  std::snprintf(buf, sizeof buf, "p%d %.6f s (n=%zu)", pct,
                quantile(v, pct / 100.0), v.size());
  return buf;
}

void Bench::print_end_to_end(const std::map<std::string, double>& m) const {
  const std::vector<OpSample>& saves = saves_primary() ? primary_ : secondary_;
  const std::vector<OpSample>& loads = saves_primary() ? secondary_ : primary_;
  std::vector<double> sw, lw;
  for (const OpSample& s : saves) sw.push_back(s.wall);
  for (const OpSample& s : loads) lw.push_back(s.wall);
  const std::map<std::string, std::string> counts = {
      {"setup_s", std::to_string(setup_s_.size()) + " set-ups"},
      {"save_s_p50", std::to_string(saves.size()) + " saves"},
      {"ckpt_gib_s", std::to_string(saves.size()) + " saves"},
      {"load_s_p50", std::to_string(loads.size()) + " loads"},
      {"resume_s_p50", std::to_string(loads.size()) + " loads"},
      {"wire_bytes_per_ckpt_byte",
       std::to_string(primary_.size()) + " " +
           (saves_primary() ? "saves" : "loads")},
      {"peak_rss_mib", std::to_string(kRanks) + " ranks"},
  };
  std::printf("%-26s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& mt : kEndToEnd)
    std::printf("%-26s %16.6f  %-6s %s\n", mt.name,
                m.count(mt.name) ? m.at(mt.name) : 0.0, mt.unit,
                counts.at(mt.name).c_str());
  auto list = [](const char* what, const std::vector<OpSample>& v,
                 bool eng) {
    std::printf("%s samples (s):", what);
    for (const OpSample& s : v) std::printf(" %.4f", eng ? s.eng : s.wall);
    std::printf("\n");
  };
  list("save", saves, false);
  list("stall", saves, true);
  list("load", loads, false);
  list("resume", loads, true);
  std::printf("%-26s %16.6f  %-6s %zu saves; not gated (see NOTES.md)\n",
              "stall_s_p50", m.count("stall_s_p50") ? m.at("stall_s_p50") : 0.0,
              "s", saves.size());
  std::printf("%-26s %s\n", "save_s_tail", tail_text(sw).c_str());
  std::printf("%-26s %s\n", "load_s_tail", tail_text(lw).c_str());
  std::printf("%-26s %16.6f  %-6s failed %d of %d attempted\n",
              "failed_ops_ratio",
              attempted_ > 0 ? double(failed_) / attempted_ : 0.0, "ratio",
              failed_, attempted_);
}

void Bench::print_per_layer(const std::map<std::string, double>& m) const {
  std::printf("per-layer metrics: %zu traced of %zu %s (critical rank %.0f, "
              "gf kernels %s)\n",
              static_cast<std::size_t>(std::count_if(
                  primary_.begin(), primary_.end(),
                  [](const OpSample& s) { return s.traced; })),
              primary_.size(), saves_primary() ? "saves" : "loads",
              m.count("crit.rank") ? m.at("crit.rank") : 0.0,
              probes_.empty() || !probes_[0].count("probe.isa")
                  ? "?"
                  : probes_[0].at("probe.isa").c_str());
  std::printf("%-32s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& mt : kPerLayer)
    std::printf("%-32s %16.6f  %s\n", mt.name,
                m.count(mt.name) ? m.at(mt.name) : 0.0, mt.unit);
  std::printf("%-32s %16.6f  %s failed %d of %d attempted\n",
              "failed_ops_ratio",
              attempted_ > 0 ? double(failed_) / attempted_ : 0.0, "ratio",
              failed_, attempted_);
}

int usage() {
  std::fprintf(stderr,
               "usage: fabricbench --workload full_save|sparse_delta|recover "
               "--seed N --seconds S --trace 0|1 [--size tiny|full] "
               "[--out DIR] [--fault corrupt-restored]\n");
  return 2;
}

}  // namespace
}  // namespace fabricbench

int main(int argc, char** argv) {
  using namespace fabricbench;
  ::signal(SIGPIPE, SIG_IGN);
  BenchConfig cfg;
  std::string out_dir = ".bench_out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      if (!parse_workload(val, &cfg.workload)) return usage();
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return usage();
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(cfg.seconds > 0))
        return usage();
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage();
      cfg.trace = val == "1";
    } else if (arg == "--size") {
      if (val != "tiny" && val != "full") return usage();
      cfg.tiny = val == "tiny";
    } else if (arg == "--out") {
      out_dir = val;
    } else if (arg == "--fault") {
      if (val != "corrupt-restored") return usage();
      cfg.corrupt_restored = true;
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();
  return Bench(cfg, out_dir).run();
}

// Rank process. Commands (cmd=<name>, one per line) and their replies:
//
//   setup           open a fresh transport + session (empty store)
//   step            advance the shard one training step (untimed)
//   save  traced=T  FabricSession::save of the shard      → op fields
//   load  traced=T  FabricSession::load + digest check    → op fields
//   fail  victim=V  V drops its transport, store and session and comes
//                   back on the same endpoint; the others reset_peer(V)
//   probe           layer probes on this rank's shard     → probe.* fields
//   dump  path=F    write this rank's tracer snapshot to F.rank<r>
//   quit            exit
//
// Op fields: ok, wall (s), eng (stall_time or resume_time, s), digest_ok
// (loads), fab.<op>.n / fab.<op>.s (TimedFabric), cnt.<counter> (per-op
// StatsRegistry deltas), err when the collective threw.
#include "rank.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "core/session.hpp"
#include "net/transport.hpp"
#include "obs/distributed.hpp"
#include "obs/stats.hpp"
#include "obs/tracer.hpp"
#include "probes.hpp"
#include "timed_fabric.hpp"

namespace fabricbench {

using namespace eccheck;

namespace {

class Rank {
 public:
  Rank(const BenchConfig& cfg, int rank, std::vector<net::Endpoint> peers)
      : cfg_(cfg), rank_(rank), peers_(std::move(peers)),
        shard_(make_shard(cfg, rank)) {}

  const dnn::StateDict& shard() const { return shard_; }

  Fields handle(const Fields& cmd) {
    const auto it = cmd.find("cmd");
    const std::string name = it == cmd.end() ? "" : it->second;
    const bool traced = field_or(cmd, "traced") != 0;
    if (name == "setup") return reopen();
    if (name == "step") {
      advance_shard(cfg_, shard_, rank_, ++iteration_);
      return {{"ok", "1"}};
    }
    if (name == "save") return save(traced);
    if (name == "load") return load(traced);
    if (name == "fail") return fail(static_cast<int>(field_or(cmd, "victim")));
    if (name == "probe") return run_probes(ec_config(cfg_), shard_);
    if (name == "dump") return dump(cmd.at("path"));
    return {{"ok", "0"}, {"err", field_text("unknown command " + name)}};
  }

 private:
  /// A fresh process's view: new transport on our endpoint, empty store,
  /// new session. The stats registry lives on, so counter deltas stay
  /// per-operation across a replacement.
  Fields reopen() {
    session_.reset();
    fabric_.reset();
    transport_.reset();
    net::TransportOptions opts;
    opts.connect_timeout = net::Millis(2000);
    opts.connect_retries = 40;
    opts.backoff_base = net::Millis(2);
    opts.backoff_max = net::Millis(50);
    opts.io_timeout = net::Millis(30000);
    opts.stats = &stats_;
    transport_ = std::make_unique<net::SocketTransport>(rank_, peers_, opts);
    fabric_ = std::make_unique<TimedFabric>(*transport_);
    session_ = std::make_unique<core::FabricSession>(*fabric_, ec_config(cfg_),
                                                     /*gpus_per_node=*/1,
                                                     /*retain_versions=*/2);
    return {{"ok", "1"}};
  }

  /// Time `body` as one collective; with `traced`, the tracer records it
  /// under a bench.<what> root span that parents every fabric call.
  template <class F>
  Fields timed_op(const char* what, bool traced, F&& body) {
    using Clock = std::chrono::steady_clock;
    Fields out;
    std::uint64_t trace_id = 0;
    if (traced) {
      obs::Tracer::global().enable();
      trace_id = obs::Tracer::new_trace_id();
    }
    obs::StatsRegistry::CounterMap counters;
    const auto t0 = Clock::now();
    try {
      obs::ScopedTraceContext ctx(trace_id, 0);
      obs::ScopedSpan span(std::string("bench.") + what);
      fabric_->begin_operation(trace_id, span.span_id());
      body(out);
      out["ok"] = "1";
    } catch (const std::exception& e) {
      out["ok"] = "0";
      out["err"] = field_text(e.what());
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    counters = fabric_->end_operation();
    if (traced) obs::Tracer::global().disable();

    out["wall"] = field_number(wall);
    const auto& ops = fabric_->op_stats();
    for (std::size_t op = 0; op < ops.size(); ++op) {
      const std::string stem =
          std::string("fab.") + TimedFabric::kOpNames[op];
      out[stem + ".n"] = std::to_string(ops[op].calls);
      out[stem + ".s"] = field_number(ops[op].seconds);
    }
    for (const auto& [key, value] : counters)
      out["cnt." + key] = std::to_string(value);
    return out;
  }

  Fields save(bool traced) {
    return timed_op("save", traced, [&](Fields& out) {
      const ckpt::SaveReport rep = session_->save({&shard_});
      out["eng"] = field_number(rep.stall_time);
    });
  }

  Fields load(bool traced) {
    std::vector<dnn::StateDict> restored;
    bool success = false;
    Fields out = timed_op("load", traced, [&](Fields& o) {
      const core::FabricSession::RecoverResult r = session_->load(restored);
      o["eng"] = field_number(r.report.resume_time);
      o["version"] = std::to_string(r.version);
      success = r.report.success;
      if (!success) o["err"] = field_text("load failed: " + r.report.detail);
    });
    // Digest gate, outside the timed interval: the restored shard must be
    // byte-identical to the shard this rank last saved.
    bool digest_ok = success && restored.size() == 1;
    if (digest_ok) {
      if (cfg_.corrupt_restored && rank_ == 0) {
        auto& tensors = restored[0].tensors();
        if (!tensors.empty() && tensors[0].tensor.nbytes() > 0)
          tensors[0].tensor.bytes()[0] ^= std::byte{0x01};
      }
      digest_ok = restored[0].digest() == shard_.digest();
    }
    if (!success) out["ok"] = "0";
    out["digest_ok"] = digest_ok ? "1" : "0";
    return out;
  }

  Fields fail(int victim) {
    Fields out{{"ok", "1"}};
    try {
      if (victim == rank_) {
        reopen();
      } else {
        transport_->reset_peer(victim);
      }
    } catch (const std::exception& e) {
      out["ok"] = "0";
      out["err"] = field_text(e.what());
    }
    return out;
  }

  /// Writes `<prefix>.rank<r>`.
  Fields dump(const std::string& prefix) {
    std::ofstream f(prefix + ".rank" + std::to_string(rank_));
    f << obs::serialize_snapshot(obs::Tracer::global(), &stats_,
                                 "rank" + std::to_string(rank_));
    f.close();
    return {{"ok", f ? "1" : "0"},
            {"dropped", std::to_string(obs::Tracer::global().dropped_count())}};
  }

  const BenchConfig cfg_;
  const int rank_;
  const std::vector<net::Endpoint> peers_;
  dnn::StateDict shard_;
  std::int64_t iteration_ = 0;
  obs::StatsRegistry stats_;
  std::unique_ptr<net::SocketTransport> transport_;
  std::unique_ptr<TimedFabric> fabric_;
  std::unique_ptr<core::FabricSession> session_;
};

}  // namespace

void rank_main(const BenchConfig& cfg, int rank,
               const std::vector<net::Endpoint>& peers, Channel ch) {
  obs::Tracer::set_thread_name("rank" + std::to_string(rank));
  std::unique_ptr<Rank> self;
  try {
    self = std::make_unique<Rank>(cfg, rank, peers);
  } catch (const std::exception& e) {
    ch.send("ready=0 err=" + field_text(e.what()));
    std::_Exit(1);
  }
  const std::size_t P = ec_config(cfg).packet_size;
  ch.send(encode_fields(
      {{"ready", "1"},
       {"tensor_bytes", std::to_string(self->shard().tensor_bytes())},
       {"packets",
        std::to_string((self->shard().tensor_bytes() + P - 1) / P)}}));
  std::string line;
  while (ch.receive(&line, -1)) {
    const Fields cmd = decode_fields(line);
    if (cmd.count("cmd") && cmd.at("cmd") == "quit") break;
    Fields reply;
    try {
      reply = self->handle(cmd);
    } catch (const std::exception& e) {
      reply = {{"ok", "0"}, {"err", field_text(e.what())}};
    }
    if (!ch.send(encode_fields(reply))) break;
  }
  self.reset();  // closes the listener before the parent reaps us
  std::_Exit(0);
}

}  // namespace fabricbench

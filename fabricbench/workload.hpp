// The benchmark's workloads and the inputs each one generates from the
// seed. Shared by the parent process and the forked rank processes.
//
//   full_save     GPT-2-shaped dense shards, full four-step save per round
//   sparse_delta  ECRM-style embedding shards, 1% of rows touched between
//                 saves, incremental (delta) saves
//   recover       one full_save-shaped save, then per round one data node
//                 loses its volatile state and every rank loads
//
// NOTES.md in this directory records why each workload exists and which
// layer it leaves idle.
#pragma once

#include <cstdint>
#include <string>

#include "core/eccheck_engine.hpp"
#include "dnn/state_dict.hpp"

namespace fabricbench {

enum class Workload { kFullSave, kSparseDelta, kRecover };

const char* workload_name(Workload w);
bool parse_workload(const std::string& name, Workload* out);

struct BenchConfig {
  Workload workload = Workload::kFullSave;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test sizes: kilobyte shards, so a run takes about a second.
  bool tiny = false;
  /// Digest-gate self-test: rank 0 flips one byte of every shard it
  /// restores before comparing digests, so each load must count as failed.
  bool corrupt_restored = false;
};

/// One rank per node, one worker per rank.
constexpr int kRanks = 4;

/// k=2, m=2, GF(2^8) table kernel, 1 MiB packets (64 KiB when tiny), CRC
/// integrity on, remote flush off; delta saves on for sparse_delta only.
eccheck::core::ECCheckConfig ec_config(const BenchConfig& cfg);

/// Rank `rank`'s shard at iteration 0, generated from cfg.seed.
eccheck::dnn::StateDict make_shard(const BenchConfig& cfg, int rank);

/// Training step between saves: sparse_delta rewrites 1% of the embedding
/// rows and the dense tower (dnn::apply_sparse_update); the dense workloads
/// leave the shard unchanged, since the full save path moves every byte
/// whatever it holds.
void advance_shard(const BenchConfig& cfg, eccheck::dnn::StateDict& shard,
                   int rank, std::int64_t iteration);

}  // namespace fabricbench

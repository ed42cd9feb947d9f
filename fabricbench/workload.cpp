#include "workload.hpp"

#include "dnn/checkpoint_gen.hpp"
#include "dnn/sparse_update.hpp"

namespace fabricbench {

using namespace eccheck;

namespace {

/// GPT-2 shape, TP=2 × PP=2, one worker per rank: hidden 256, 8 layers,
/// vocab 8192 with Adam moments gives ~85 MiB in total and 15–28 one-MiB
/// packets per worker.
dnn::CheckpointGenConfig dense_config(const BenchConfig& cfg) {
  dnn::CheckpointGenConfig gen;
  gen.model = cfg.tiny ? dnn::make_model(dnn::ModelFamily::kGPT2, 64, 2, 2,
                                         "gpt2-bench-tiny")
                       : dnn::make_model(dnn::ModelFamily::kGPT2, 256, 4, 8,
                                         "gpt2-bench");
  gen.model.vocab = cfg.tiny ? 512 : 8192;
  gen.parallelism = {2, 2, 1};
  gen.seed = cfg.seed;
  return gen;
}

/// ECRM-style shard: 131072 × 64 F32 embedding rows (32 MiB) per rank.
dnn::SparseUpdateSpec sparse_spec(const BenchConfig& cfg) {
  dnn::SparseUpdateSpec spec;
  spec.embedding_rows = cfg.tiny ? 4096 : 131072;
  spec.embedding_dim = 64;
  spec.row_density = 0.01;
  spec.seed = cfg.seed;
  return spec;
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kFullSave:
      return "full_save";
    case Workload::kSparseDelta:
      return "sparse_delta";
    case Workload::kRecover:
      return "recover";
  }
  return "?";
}

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kFullSave, Workload::kSparseDelta, Workload::kRecover}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

core::ECCheckConfig ec_config(const BenchConfig& cfg) {
  core::ECCheckConfig ec;
  ec.k = 2;
  ec.m = 2;
  ec.gf_width = 8;
  ec.kernel = ec::KernelMode::kGfTable;
  ec.packet_size = cfg.tiny ? 64 * 1024 : mib(1);
  ec.flush_to_remote = false;
  ec.verify_integrity = true;
  ec.delta.enabled = cfg.workload == Workload::kSparseDelta;
  return ec;
}

dnn::StateDict make_shard(const BenchConfig& cfg, int rank) {
  if (cfg.workload == Workload::kSparseDelta)
    return dnn::make_sparse_model_shard(sparse_spec(cfg), rank);
  return dnn::make_worker_state_dict(dense_config(cfg), rank);
}

void advance_shard(const BenchConfig& cfg, dnn::StateDict& shard, int rank,
                   std::int64_t iteration) {
  if (cfg.workload == Workload::kSparseDelta)
    dnn::apply_sparse_update(shard, sparse_spec(cfg), rank, iteration);
}

}  // namespace fabricbench

// Layer probes: time the public functions of core, ec, gf and common on a
// rank's own shard and packets, at the workload's k, m, w and kernel. They
// run after the timed loop, so they never perturb the end-to-end numbers;
// the parent process turns their rates into per-operation estimates with the
// stripe shape (calls or bytes implied per save/load × cost per byte).
#pragma once

#include "channel.hpp"
#include "core/eccheck_engine.hpp"
#include "dnn/state_dict.hpp"

namespace fabricbench {

/// Reply fields, all numeric except probe.isa:
///   probe.decompose_s, probe.pack_s     seconds per call on this shard
///   probe.<kernel>_bps                  bytes per second, for kernel in
///       encode_partial (source bytes, all m parity rows),
///       update_parity  (delta bytes, 4 KiB regions, all m rows),
///       decode         (reconstructed bytes, k rows per call),
///       crc64, mul_region, xor_into, memcpy (bytes processed)
Fields run_probes(const eccheck::core::ECCheckConfig& ec,
                  const eccheck::dnn::StateDict& shard);

}  // namespace fabricbench

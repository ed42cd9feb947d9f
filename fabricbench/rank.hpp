// One forked rank process: owns one net::SocketTransport over UDS, one
// core::FabricSession and one shard, and executes the parent's commands
// (see rank.cpp for the command set) until told to quit.
#pragma once

#include <vector>

#include "channel.hpp"
#include "net/socket.hpp"
#include "workload.hpp"

namespace fabricbench {

/// Generates the rank's shard, reports `ready=1` with its size, then serves
/// commands on `ch`. Exits the process; never returns.
[[noreturn]] void rank_main(const BenchConfig& cfg, int rank,
                            const std::vector<eccheck::net::Endpoint>& peers,
                            Channel ch);

}  // namespace fabricbench

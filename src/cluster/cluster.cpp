#include "cluster/cluster.hpp"

namespace eccheck::cluster {

const char* fabric_op_kind_name(FabricOp::Kind kind) {
  switch (kind) {
    case FabricOp::Kind::kDtoh: return "dtoh";
    case FabricOp::Kind::kHostCopy: return "host_copy";
    case FabricOp::Kind::kNetSend: return "net_send";
    case FabricOp::Kind::kRemoteWrite: return "remote_write";
    case FabricOp::Kind::kRemoteRead: return "remote_read";
  }
  return "?";
}

void VirtualCluster::fire_fault_hook(const FabricOp& op) {
  if (fault_hook_ == nullptr || in_fault_hook_) return;
  in_fault_hook_ = true;
  try {
    fault_hook_->on_fabric_op(*this, op);
  } catch (...) {
    in_fault_hook_ = false;
    throw;
  }
  in_fault_hook_ = false;
}

VirtualCluster::VirtualCluster(ClusterConfig cfg)
    : cfg_(cfg),
      alive_(static_cast<std::size_t>(cfg.num_nodes), true),
      hosts_(static_cast<std::size_t>(cfg.num_nodes)),
      nic_calendar_(static_cast<std::size_t>(cfg.num_nodes)) {
  ECC_CHECK(cfg_.num_nodes >= 1);
  ECC_CHECK(cfg_.gpus_per_node >= 1);
  build_resources();
}

void VirtualCluster::build_resources() {
  timeline_ = sim::Timeline();
  nic_tx_.clear();
  nic_rx_.clear();
  cpu_.clear();
  xor_.clear();
  dtoh_.clear();
  for (int n = 0; n < cfg_.num_nodes; ++n) {
    std::string p = "node" + std::to_string(n);
    nic_tx_.push_back(timeline_.add_resource(p + "/tx"));
    nic_rx_.push_back(timeline_.add_resource(p + "/rx"));
    cpu_.push_back(timeline_.add_resource(p + "/cpu"));
    xor_.push_back(timeline_.add_resource(p + "/xor"));
    std::vector<sim::ResourceId> gpus;
    for (int g = 0; g < cfg_.gpus_per_node; ++g)
      gpus.push_back(timeline_.add_resource(p + "/dtoh" + std::to_string(g)));
    dtoh_.push_back(std::move(gpus));
    timeline_.set_calendar(nic_tx_[static_cast<std::size_t>(n)],
                           nic_calendar_[static_cast<std::size_t>(n)]);
    timeline_.set_calendar(nic_rx_[static_cast<std::size_t>(n)],
                           nic_calendar_[static_cast<std::size_t>(n)]);
  }
  storage_ = timeline_.add_resource("remote_storage");
}

void VirtualCluster::reset_timeline() { build_resources(); }

Store& VirtualCluster::host(int node) {
  ECC_CHECK_MSG(alive_[check_node(node)],
                "access to host memory of dead node " << node);
  return hosts_[check_node(node)];
}

const Store& VirtualCluster::host(int node) const {
  ECC_CHECK_MSG(alive_[check_node(node)],
                "access to host memory of dead node " << node);
  return hosts_[check_node(node)];
}

void VirtualCluster::kill(int node) {
  auto i = check_node(node);
  ECC_CHECK_MSG(alive_[i], "kill() on already-dead node "
                               << node
                               << " (a slot fails at most once per replace)");
  alive_[i] = false;
  hosts_[i].clear();  // CPU memory is non-persistent
}

void VirtualCluster::replace(int node) {
  auto i = check_node(node);
  ECC_CHECK_MSG(!alive_[i], "replace() on alive node "
                                << node
                                << " (would silently discard its state)");
  alive_[i] = true;
  hosts_[i].clear();
}

std::vector<int> VirtualCluster::alive_nodes() const {
  std::vector<int> out;
  for (int n = 0; n < cfg_.num_nodes; ++n)
    if (alive_[static_cast<std::size_t>(n)]) out.push_back(n);
  return out;
}

int VirtualCluster::alive_count() const {
  int count = 0;
  for (bool a : alive_) count += a ? 1 : 0;
  return count;
}

TaskId VirtualCluster::dtoh(int node, int gpu, std::size_t bytes,
                            const std::vector<TaskId>& deps) {
  ECC_CHECK(gpu >= 0 && gpu < cfg_.gpus_per_node);
  fire_fault_hook({FabricOp::Kind::kDtoh, node, -1, bytes});
  stats_.add("gpu.dtoh.bytes", vbytes(bytes));
  stats_.add("gpu.dtoh.count");
  return timeline_.add_task(
      "dtoh", dtoh_[check_node(node)][static_cast<std::size_t>(gpu)],
      virt(bytes, cfg_.dtoh_bandwidth), deps);
}

TaskId VirtualCluster::host_copy(int node, std::size_t bytes,
                                 const std::vector<TaskId>& deps) {
  fire_fault_hook({FabricOp::Kind::kHostCopy, node, -1, bytes});
  stats_.add("cpu.host_copy.bytes", vbytes(bytes));
  stats_.add("cpu.host_copy.count");
  return timeline_.add_task("host_copy", cpu(node),
                            virt(bytes, cfg_.host_memcpy_bandwidth), deps);
}

TaskId VirtualCluster::cpu_code(int node, std::size_t bytes,
                                const std::vector<TaskId>& deps) {
  BytesPerSecond bw =
      cfg_.encode_bandwidth_per_thread * std::max(1, cfg_.encode_threads);
  stats_.add("cpu.code.bytes", vbytes(bytes));
  stats_.add("cpu.code.count");
  return timeline_.add_task("code", cpu(node), virt(bytes, bw), deps);
}

TaskId VirtualCluster::cpu_xor(int node, std::size_t bytes,
                               const std::vector<TaskId>& deps) {
  stats_.add("cpu.xor.bytes", vbytes(bytes));
  stats_.add("cpu.xor.count");
  return timeline_.add_task("xor", xor_lane(node),
                            virt(bytes, cfg_.xor_bandwidth), deps);
}

TaskId VirtualCluster::cpu_serialize(int node, std::size_t bytes,
                                     const std::vector<TaskId>& deps) {
  stats_.add("cpu.serialize.bytes", vbytes(bytes));
  stats_.add("cpu.serialize.count");
  return timeline_.add_task("serialize", cpu(node),
                            virt(bytes, cfg_.serialize_bandwidth), deps);
}

TaskId VirtualCluster::net_send(int src, int dst, std::size_t bytes,
                                const std::vector<TaskId>& deps,
                                bool idle_only, const std::string& label) {
  ECC_CHECK_MSG(src != dst, "net_send to self");
  fire_fault_hook({FabricOp::Kind::kNetSend, src, dst, bytes});
  // Edge kind = label up to the first ':' (send_buffer embeds the store key
  // after the colon; that must not explode counter cardinality). Collective
  // labels carry their op after a '.', so each collective counts apart.
  const std::string kind = label.substr(0, label.find(':'));
  stats_.add("net." + kind + ".bytes", vbytes(bytes));
  stats_.add("net." + kind + ".count");
  sim::TaskOptions opts;
  opts.idle_only = idle_only;
  return timeline_.add_task(label, {nic_tx(src), nic_rx(dst)},
                            virt(bytes, cfg_.nic_bandwidth), deps, opts);
}

TaskId VirtualCluster::remote_write(int node, std::size_t bytes,
                                    const std::vector<TaskId>& deps) {
  fire_fault_hook({FabricOp::Kind::kRemoteWrite, node, -1, bytes});
  stats_.add("remote.write.bytes", vbytes(bytes));
  stats_.add("remote.write.count");
  // The shared storage resource serialises all writers: aggregate bandwidth.
  return timeline_.add_task("remote_write", {nic_tx(node), storage_},
                            virt(bytes, cfg_.remote_storage_bandwidth), deps);
}

TaskId VirtualCluster::remote_read(int node, std::size_t bytes,
                                   const std::vector<TaskId>& deps) {
  fire_fault_hook({FabricOp::Kind::kRemoteRead, node, -1, bytes});
  stats_.add("remote.read.bytes", vbytes(bytes));
  stats_.add("remote.read.count");
  return timeline_.add_task("remote_read", {nic_rx(node), storage_},
                            virt(bytes, cfg_.remote_storage_bandwidth), deps);
}

TaskId VirtualCluster::barrier(const std::vector<TaskId>& deps) {
  return timeline_.add_task("barrier", sim::kNoResource, 0, deps);
}

TaskId VirtualCluster::send_buffer(int src, int dst,
                                   const std::string& src_key,
                                   const std::string& dst_key,
                                   const std::vector<TaskId>& deps,
                                   bool idle_only) {
  const std::size_t bytes = host(src).get(src_key).size();
  TaskId t = net_send(src, dst, bytes, deps, idle_only, "send:" + src_key);
  // Re-resolve after net_send: its fault hook may have killed either end, in
  // which case host() throws and the in-flight bytes never land.
  host(dst).put(dst_key, host(src).get(src_key).clone());
  return t;
}

TaskId VirtualCluster::flush_to_remote(int node, const std::string& key,
                                       const std::string& remote_key,
                                       const std::vector<TaskId>& deps) {
  const std::size_t bytes = host(node).get(key).size();
  TaskId t = remote_write(node, bytes, deps);
  remote_.put(remote_key, host(node).get(key).clone());
  return t;
}

TaskId VirtualCluster::fetch_from_remote(int node,
                                         const std::string& remote_key,
                                         const std::string& key,
                                         const std::vector<TaskId>& deps) {
  const std::size_t bytes = remote_.get(remote_key).size();
  TaskId t = remote_read(node, bytes, deps);
  host(node).put(key, remote_.get(remote_key).clone());
  return t;
}

void VirtualCluster::set_nic_calendar(
    int node, const std::vector<sim::TimeInterval>& busy) {
  nic_calendar_[check_node(node)] = busy;
  timeline_.set_calendar(nic_tx(node), busy);
  timeline_.set_calendar(nic_rx(node), busy);
}

Seconds VirtualCluster::nic_interference(int node) const {
  return timeline_.reserved_overlap(nic_tx(node)) +
         timeline_.reserved_overlap(nic_rx(node));
}

}  // namespace eccheck::cluster

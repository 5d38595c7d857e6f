#include "workloads/testbed.h"

#include <cassert>
#include <vector>

namespace memfs::workloads {

std::string_view ToString(FsKind kind) {
  switch (kind) {
    case FsKind::kMemFs: return "MemFS";
    case FsKind::kAmfs: return "AMFS";
    case FsKind::kDiskPfs: return "DiskPFS";
  }
  return "?";
}

std::string_view ToString(Fabric fabric) {
  switch (fabric) {
    case Fabric::kDas4Ipoib: return "DAS4-IPoIB";
    case Fabric::kDas4GbE: return "DAS4-1GbE";
    case Fabric::kEc2TenGbE: return "EC2-10GbE";
    case Fabric::kRdma: return "RDMA-IB";
  }
  return "?";
}

namespace {

net::NetworkConfig FabricConfig(Fabric fabric, std::uint32_t nodes) {
  switch (fabric) {
    case Fabric::kDas4Ipoib: return net::Das4Ipoib(nodes);
    case Fabric::kDas4GbE: return net::Das4GbE(nodes);
    case Fabric::kEc2TenGbE: return net::Ec2TenGbE(nodes);
    case Fabric::kRdma: return net::RdmaInfiniband(nodes);
  }
  return net::Das4Ipoib(nodes);
}

// Disk-era storage servers: every object access pays a seek and streams at
// spinning-disk rate; strict POSIX bookkeeping makes mutations synchronous
// and expensive. Values are GPFS-class per-server figures from the era.
kv::KvOpCostModel DiskCostModel() {
  kv::KvOpCostModel costs;
  costs.set_base = units::Millis(5);       // seek + allocate
  costs.set_ns_per_byte = 10.0;            // ~100 MB/s per disk stream
  costs.get_base = units::Millis(5);       // seek
  costs.get_ns_per_byte = 10.0;
  costs.append_base = units::Millis(6);    // seek + journal
  costs.append_ns_per_byte = 10.0;
  costs.delete_base = units::Millis(5);
  costs.workers = 4;                       // one queue per spindle-ish
  return costs;
}

}  // namespace

Testbed::Testbed(FsKind kind, TestbedConfig config)
    : kind_(kind), config_(config) {
  auto net_config =
      FabricConfig(config_.fabric, config_.nodes + config_.standby_nodes);
  if (config_.fabric_bandwidth != 0) {
    net_config.fabric_bandwidth = config_.fabric_bandwidth;
  }
  if (config_.net_model == NetModel::kFairShare) {
    network_ = std::make_unique<net::FairShareNetwork>(sim_, net_config);
  } else {
    network_ = std::make_unique<net::WaterfillNetwork>(sim_, net_config);
  }

  if (kind_ == FsKind::kMemFs || kind_ == FsKind::kDiskPfs) {
    std::vector<net::NodeId> server_nodes;
    server_nodes.reserve(config_.nodes);
    for (std::uint32_t n = 0; n < config_.nodes; ++n) {
      server_nodes.push_back(n);
    }
    kv::KvServerConfig server_config;
    server_config.memory_limit = config_.node_memory_limit;
    kv::KvOpCostModel costs;
    fs::MemFsConfig client_config = config_.memfs;
    if (kind_ == FsKind::kDiskPfs) {
      costs = DiskCostModel();
      // Strict POSIX semantics: no write-once relaxation to exploit, so no
      // asynchronous flushing and no speculative prefetching; disks have
      // effectively unbounded capacity next to DRAM.
      client_config.io_threads = 0;
      client_config.prefetch_depth = 0;
      server_config.memory_limit = units::GiB(4096);
      server_config.max_object_size = units::GiB(1);
    }
    // TestbedConfig::metrics is a convenience override: honour a registry
    // already wired into the nested MemFsConfig instead of silently
    // clobbering it with null (or with a second registry).
    if (config_.metrics != nullptr) client_config.metrics = config_.metrics;
    if (config_.elastic) client_config.use_ketama = true;
    storage_ = std::make_unique<kv::KvCluster>(
        sim_, *network_, std::move(server_nodes), server_config, costs,
        client_config.metrics, config_.kv_policy);
    memfs_ = std::make_unique<fs::MemFs>(sim_, *network_, *storage_,
                                         client_config);
    if (config_.elastic && kind_ == FsKind::kMemFs) {
      kv::MembershipConfig member_config;
      member_config.replication = client_config.replication;
      membership_ = std::make_unique<kv::Membership>(sim_, *storage_,
                                                     member_config);
      migrator_ = std::make_unique<kv::Migrator>(sim_, *membership_);
      memfs_->AttachMembership(membership_.get());
    }
  } else {
    amfs::AmfsConfig amfs_config;
    amfs_config.node_memory_limit = config_.node_memory_limit;
    amfs_ = std::make_unique<amfs::Amfs>(sim_, *network_, amfs_config);
  }
}

fs::Vfs& Testbed::vfs() {
  if (memfs_) return *memfs_;
  assert(amfs_);
  return *amfs_;
}

sim::FaultHooks Testbed::fault_hooks() {
  sim::FaultHooks hooks;
  if (!storage_) return hooks;
  kv::KvCluster* storage = storage_.get();
  net::Network* network = network_.get();
  hooks.set_server_down = [storage](std::uint32_t server, bool down,
                                    bool wipe) {
    storage->SetServerDown(server, down, wipe);
  };
  hooks.set_server_slowdown = [storage](std::uint32_t server, double factor) {
    storage->SetServerSlowdown(server, factor);
  };
  hooks.set_link_fault = [network](std::uint32_t src, std::uint32_t dst,
                                   double loss, sim::SimTime extra) {
    network->SetLinkFault(src, dst, {loss, extra});
  };
  hooks.clear_link_fault = [network](std::uint32_t src, std::uint32_t dst) {
    network->ClearLinkFault(src, dst);
  };
  return hooks;
}

std::uint64_t Testbed::NodeMemoryUsed(net::NodeId node) const {
  if (storage_) {
    // Server index == node index in this deployment.
    return storage_->server(node).memory_used();
  }
  return amfs_->node_memory_used(node);
}

std::uint64_t Testbed::TotalMemoryUsed() const {
  std::uint64_t total = 0;
  for (std::uint32_t n = 0; n < config_.nodes; ++n) total += NodeMemoryUsed(n);
  return total;
}

}  // namespace memfs::workloads

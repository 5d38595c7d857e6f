// One-stop construction of a simulated storage deployment: simulation +
// fabric + (MemFS: kv servers + client | AMFS: baseline FS). Examples and
// every bench harness build their clusters through this, so experiment
// configuration reads like the paper's setup section.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "amfs/amfs.h"
#include "common/metrics.h"
#include "common/units.h"
#include "kvstore/kv_cluster.h"
#include "kvstore/membership.h"
#include "kvstore/migrator.h"
#include "memfs/memfs.h"
#include "net/fluid_network.h"
#include "net/network.h"
#include "sim/fault.h"
#include "sim/simulation.h"

namespace memfs::workloads {

// kDiskPfs is the general-purpose, disk-backed parallel file system the
// paper argues against in §1-2 (GPFS/PVFS class): the same striping client,
// but servers bound by spinning disks and strict POSIX bookkeeping instead
// of DRAM — the baseline that motivates in-memory runtime file systems.
enum class FsKind { kMemFs, kAmfs, kDiskPfs };
enum class Fabric { kDas4Ipoib, kDas4GbE, kEc2TenGbE, kRdma };
enum class NetModel { kFairShare, kWaterfill };

std::string_view ToString(FsKind kind);
std::string_view ToString(Fabric fabric);

struct TestbedConfig {
  std::uint32_t nodes = 8;
  // Extra provisioned-but-idle nodes for elastic scale-out experiments:
  // they are part of the fabric from the start but host no storage server
  // until MemFs::AddStorageServer brings one up (on node `nodes + i`).
  std::uint32_t standby_nodes = 0;
  Fabric fabric = Fabric::kDas4Ipoib;
  NetModel net_model = NetModel::kFairShare;
  // Core fabric capacity override: 0 keeps the preset's non-blocking
  // (full-bisection) core; nonzero caps the aggregate cross-cluster
  // bandwidth (oversubscribed switch fabrics).
  std::uint64_t fabric_bandwidth = 0;
  // Per-node storage budget (paper: node memory minus a 4 GB reservation for
  // application + OS; DAS4 nodes have 24 GB -> 20 GB budget).
  std::uint64_t node_memory_limit = units::GiB(20);
  fs::MemFsConfig memfs;
  // Client-side fault handling (retries, per-op deadline, circuit breaker);
  // the default is inert on healthy runs.
  kv::KvClientPolicy kv_policy;
  // Optional caller-owned latency instrumentation, attached to both the
  // storage layer (kv.*) and the MemFS client (vfs.*).
  MetricsRegistry* metrics = nullptr;
  // Elastic membership (MemFS only): builds a Membership + Migrator pair and
  // attaches them to the client, replacing epoch pinning with live
  // rebalancing. Forces the ketama distributor (the ring and the static
  // distributor agree bit-for-bit on the initial full set, so this changes
  // no placement until a join/drain opens a transition).
  bool elastic = false;
};

class Testbed {
 public:
  Testbed(FsKind kind, TestbedConfig config);

  sim::Simulation& simulation() { return sim_; }
  net::FluidNetwork& network() { return *network_; }
  fs::Vfs& vfs();

  FsKind kind() const { return kind_; }
  const TestbedConfig& config() const { return config_; }

  // Non-null only for the matching kind.
  fs::MemFs* memfs() { return memfs_.get(); }
  amfs::Amfs* amfs() { return amfs_.get(); }
  kv::KvCluster* storage() { return storage_.get(); }

  // Non-null only when config.elastic is set (MemFS kind).
  kv::Membership* membership() { return membership_.get(); }
  kv::Migrator* migrator() { return migrator_.get(); }

  // Hooks for a sim::FaultInjector: crash and slow faults reach storage(),
  // link faults reach network(). An AMFS testbed has no kv servers to fault,
  // so its hooks are all unset and every scheduled fault is a no-op.
  sim::FaultHooks fault_hooks();

  // Per-node stored bytes, uniform across both file systems.
  std::uint64_t NodeMemoryUsed(net::NodeId node) const;
  std::uint64_t TotalMemoryUsed() const;

 private:
  FsKind kind_;
  TestbedConfig config_;
  sim::Simulation sim_;
  std::unique_ptr<net::FluidNetwork> network_;
  std::unique_ptr<kv::KvCluster> storage_;
  std::unique_ptr<fs::MemFs> memfs_;
  std::unique_ptr<kv::Membership> membership_;
  std::unique_ptr<kv::Migrator> migrator_;
  std::unique_ptr<amfs::Amfs> amfs_;
};

}  // namespace memfs::workloads

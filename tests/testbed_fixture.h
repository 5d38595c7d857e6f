// The one way tests build a cluster: workloads::Testbed, through BedConfig,
// SecondDeployment or the TestbedFixture gtest fixture, whose file helpers
// are test_util.h's bound to one MemFS bed. Build() replaces the whole
// deployment. The testbed_guard ctest fails a test that wires a network, kv
// cluster or file system by hand.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "test_util.h"  // gtest, Bytes, Status, units, the Vfs types
#include "workloads/testbed.h"

namespace memfs::testing {

// `nodes` storage nodes plus `standby` idle ones, every other TestbedConfig
// knob at its default.
inline workloads::TestbedConfig BedConfig(std::uint32_t nodes,
                                          std::uint32_t standby = 0) {
  workloads::TestbedConfig config;
  config.nodes = nodes;
  config.standby_nodes = standby;
  return config;
}

// One more MemFS deployment beside a bed's own: kv servers on `servers` and
// a default client, on the bed's simulation and network. Staging tests use
// it as the permanent store the runtime file system stages from and to.
struct SecondDeployment {
  SecondDeployment(workloads::Testbed& bed, std::vector<net::NodeId> servers)
      : storage(bed.simulation(), bed.network(), std::move(servers)),
        fs(bed.simulation(), bed.network(), storage, fs::MemFsConfig{}) {}

  kv::KvCluster storage;
  fs::MemFs fs;
};

class TestbedFixture : public ::testing::Test {
 protected:
  void Build(const workloads::TestbedConfig& config) {
    bed_.reset();
    bed_ = std::make_unique<workloads::Testbed>(workloads::FsKind::kMemFs,
                                                config);
    sim_ = &bed_->simulation();
    network_ = &bed_->network();
    storage_ = bed_->storage();
    fs_ = bed_->memfs();
    membership_ = bed_->membership();
    migrator_ = bed_->migrator();
  }

  Status WriteFile(fs::VfsContext ctx, const std::string& path,
                   const Bytes& data, std::uint64_t block = 0) {
    return testing::WriteFile(*sim_, *fs_, ctx, path, data, block);
  }

  Result<Bytes> ReadFile(fs::VfsContext ctx, const std::string& path,
                         std::uint64_t block = units::MiB(1)) {
    return testing::ReadFile(*sim_, *fs_, ctx, path, block);
  }

  std::unique_ptr<workloads::Testbed> bed_;
  sim::Simulation* sim_ = nullptr;
  net::Network* network_ = nullptr;
  kv::KvCluster* storage_ = nullptr;
  fs::MemFs* fs_ = nullptr;
  kv::Membership* membership_ = nullptr;  // set on an elastic testbed
  kv::Migrator* migrator_ = nullptr;
};

}  // namespace memfs::testing

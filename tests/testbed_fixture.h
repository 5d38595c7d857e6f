// A gtest fixture over one MemFS workloads::Testbed, with the file helpers of
// test_util.h bound to it. Build() replaces the whole deployment.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "test_util.h"  // gtest, Bytes, Status, units, the Vfs types
#include "workloads/testbed.h"

namespace memfs::testing {

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

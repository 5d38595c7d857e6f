// AMFS baseline tests: local-only writes, replication-on-read, remote-fetch
// cost, multicast, skewed metadata, capacity failures, namespace operations.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "amfs/amfs.h"
#include "common/units.h"
#include "net/fluid_network.h"
#include "test_util.h"

namespace memfs::amfs {
namespace {

using fs::VfsContext;
using memfs::testing::Await;
using units::KiB;
using units::MiB;

class AmfsTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kNodes = 4;

  AmfsTest() { Recreate({}); }

  void Recreate(AmfsConfig config) {
    fs_.reset();
    network_.reset();
    sim_ = std::make_unique<sim::Simulation>();
    network_ = std::make_unique<net::FairShareNetwork>(
        *sim_, net::Das4Ipoib(kNodes));
    fs_ = std::make_unique<Amfs>(*sim_, *network_, config);
  }

  Status WriteFile(VfsContext ctx, const std::string& path,
                   const Bytes& data) {
    return testing::WriteFile(*sim_, *fs_, ctx, path, data);
  }

  // The whole file in one read call, then the empty read at EOF.
  Result<Bytes> ReadFile(VfsContext ctx, const std::string& path) {
    return testing::ReadFile(*sim_, *fs_, ctx, path, MiB(256));
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::FairShareNetwork> network_;
  std::unique_ptr<Amfs> fs_;
};

TEST_F(AmfsTest, RoundTripLocal) {
  const Bytes data = Bytes::Pattern(1000, 3);
  ASSERT_TRUE(WriteFile({2, 0}, "/f", data).ok());
  auto back = ReadFile({2, 0}, "/f");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(data));
}

TEST_F(AmfsTest, WritesLandOnWriterNode) {
  ASSERT_TRUE(WriteFile({1, 0}, "/local", Bytes::Synthetic(MiB(4), 1)).ok());
  EXPECT_EQ(fs_->node_memory_used(1), MiB(4));
  EXPECT_EQ(fs_->node_memory_used(0), 0u);
  EXPECT_EQ(fs_->OwnerHint("/local"), 1u);
  EXPECT_TRUE(fs_->HasReplica(1, "/local"));
  EXPECT_FALSE(fs_->HasReplica(0, "/local"));
}

TEST_F(AmfsTest, RemoteOpenReplicates) {
  ASSERT_TRUE(WriteFile({0, 0}, "/r", Bytes::Synthetic(MiB(2), 2)).ok());
  auto back = ReadFile({3, 0}, "/r");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), MiB(2));
  // Replication-on-read: the reader now holds a full copy.
  EXPECT_TRUE(fs_->HasReplica(3, "/r"));
  EXPECT_EQ(fs_->node_memory_used(3), MiB(2));
  // Aggregate memory doubled — the paper's Fig. 9 effect.
  EXPECT_EQ(fs_->total_memory_used(), MiB(4));
}

TEST_F(AmfsTest, RemoteReadSlowerThanLocal) {
  ASSERT_TRUE(WriteFile({0, 0}, "/a", Bytes::Synthetic(MiB(4), 1)).ok());
  ASSERT_TRUE(WriteFile({1, 0}, "/b", Bytes::Synthetic(MiB(4), 2)).ok());

  auto t0 = sim_->now();
  ASSERT_TRUE(ReadFile({0, 0}, "/a").ok());  // local
  const auto local_time = sim_->now() - t0;

  t0 = sim_->now();
  ASSERT_TRUE(ReadFile({0, 0}, "/b").ok());  // remote fetch + replicate
  const auto remote_time = sim_->now() - t0;

  // The chunked fetch protocol makes remote reads several times slower
  // (Table 1 shows ~4x on IPoIB).
  EXPECT_GT(remote_time, local_time * 3);
}

TEST_F(AmfsTest, SecondRemoteReadIsLocal) {
  ASSERT_TRUE(WriteFile({0, 0}, "/c", Bytes::Synthetic(MiB(2), 1)).ok());
  ASSERT_TRUE(ReadFile({2, 0}, "/c").ok());  // replicates
  const auto t0 = sim_->now();
  ASSERT_TRUE(ReadFile({2, 0}, "/c").ok());  // now local
  const auto second = sim_->now() - t0;
  EXPECT_LT(second, units::Millis(20));
}

TEST_F(AmfsTest, MulticastReplicatesEverywhere) {
  ASSERT_TRUE(WriteFile({1, 0}, "/m", Bytes::Synthetic(MiB(1), 5)).ok());
  Status status = Await(*sim_, fs_->Multicast({1, 0}, "/m"));
  ASSERT_TRUE(status.ok());
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    EXPECT_TRUE(fs_->HasReplica(n, "/m")) << n;
  }
  EXPECT_EQ(fs_->total_memory_used(), MiB(4));
}

TEST_F(AmfsTest, MulticastOfMissingFileFails) {
  EXPECT_FALSE(Await(*sim_, fs_->Multicast({0, 0}, "/ghost")).ok());
}

TEST_F(AmfsTest, CapacityExceededOnWrite) {
  AmfsConfig config;
  config.node_memory_limit = MiB(4);
  Recreate(config);
  EXPECT_TRUE(WriteFile({0, 0}, "/fit", Bytes::Synthetic(MiB(3), 1)).ok());
  // The next whole file no longer fits in the writer's node memory: this is
  // what crashes AMFS on Montage 12x12.
  EXPECT_EQ(WriteFile({0, 0}, "/burst", Bytes::Synthetic(MiB(2), 2)).code(),
            ErrorCode::kNoSpace);
  // Other nodes are unaffected.
  EXPECT_TRUE(WriteFile({1, 0}, "/burst", Bytes::Synthetic(MiB(2), 2)).ok());
}

TEST_F(AmfsTest, CapacityExceededOnReplication) {
  AmfsConfig config;
  config.node_memory_limit = MiB(4);
  Recreate(config);
  ASSERT_TRUE(WriteFile({0, 0}, "/big0", Bytes::Synthetic(MiB(3), 1)).ok());
  ASSERT_TRUE(WriteFile({1, 0}, "/big1", Bytes::Synthetic(MiB(3), 2)).ok());
  // Node 1 cannot hold a replica of /big0 on top of its own file.
  EXPECT_EQ(ReadFile({1, 0}, "/big0").status().code(), ErrorCode::kNoSpace);
}

TEST_F(AmfsTest, WriteOnceSemantics) {
  ASSERT_TRUE(WriteFile({0, 0}, "/w", Bytes::Copy("v")).ok());
  EXPECT_EQ(Await(*sim_, fs_->Create({1, 0}, "/w")).status().code(),
            ErrorCode::kExists);
  auto created = Await(*sim_, fs_->Create({0, 0}, "/pending"));
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(Await(*sim_, fs_->Open({1, 0}, "/pending")).status().code(),
            ErrorCode::kPermission);
  (void)Await(*sim_, fs_->Close({0, 0}, created.value()));
}

TEST_F(AmfsTest, NamespaceOperations) {
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/d")).ok());
  ASSERT_TRUE(WriteFile({1, 0}, "/d/x", Bytes::Copy("1")).ok());
  ASSERT_TRUE(WriteFile({2, 0}, "/d/y", Bytes::Copy("2")).ok());

  auto listing = Await(*sim_, fs_->ReadDir({3, 0}, "/d"));
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 2u);

  auto info = Await(*sim_, fs_->Stat({0, 0}, "/d/x"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 1u);

  ASSERT_TRUE(Await(*sim_, fs_->Unlink({0, 0}, "/d/x")).ok());
  listing = Await(*sim_, fs_->ReadDir({3, 0}, "/d"));
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 1u);
  EXPECT_EQ(Await(*sim_, fs_->Open({0, 0}, "/d/x")).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(AmfsTest, RmdirSemantics) {
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/dd")).ok());
  ASSERT_TRUE(WriteFile({1, 0}, "/dd/x", Bytes::Copy("1")).ok());
  EXPECT_EQ(Await(*sim_, fs_->Rmdir({2, 0}, "/dd")).code(),
            ErrorCode::kNotEmpty);
  ASSERT_TRUE(Await(*sim_, fs_->Unlink({0, 0}, "/dd/x")).ok());
  ASSERT_TRUE(Await(*sim_, fs_->Rmdir({2, 0}, "/dd")).ok());
  EXPECT_EQ(Await(*sim_, fs_->Stat({0, 0}, "/dd")).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(AmfsTest, UnlinkRemovesReplicasEverywhere) {
  ASSERT_TRUE(WriteFile({0, 0}, "/rep", Bytes::Synthetic(MiB(1), 1)).ok());
  ASSERT_TRUE(Await(*sim_, fs_->Multicast({0, 0}, "/rep")).ok());
  EXPECT_EQ(fs_->total_memory_used(), MiB(4));
  ASSERT_TRUE(Await(*sim_, fs_->Unlink({2, 0}, "/rep")).ok());
  EXPECT_EQ(fs_->total_memory_used(), 0u);
}

TEST_F(AmfsTest, SkewedMetadataClustersSimilarNames) {
  // Workload-style names differing in digits land on few metadata nodes
  // under the skewed placement — the non-uniformity behind AMFS create's
  // sublinear scaling (Fig. 6).
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/proj")).ok());
  std::vector<int> load_skewed(kNodes, 0);
  for (int i = 0; i < 64; ++i) {
    std::string name = "/proj/p_" + std::to_string(1000 + i) + ".fits";
    ASSERT_TRUE(WriteFile({static_cast<net::NodeId>(i % kNodes), 0}, name,
                          Bytes::Copy("x"))
                    .ok());
  }
  // Reconstruct the placement with the same rule the FS uses.
  auto meta_node = [&](const std::string& p) {
    std::uint64_t sum = 0;
    for (unsigned char c : p) sum += c;
    return sum % kNodes;
  };
  for (int i = 0; i < 64; ++i) {
    ++load_skewed[meta_node("/proj/p_" + std::to_string(1000 + i) + ".fits")];
  }
  int max_load = *std::max_element(load_skewed.begin(), load_skewed.end());
  EXPECT_GT(max_load, 64 / static_cast<int>(kNodes));
}

TEST_F(AmfsTest, OwnerHintUnknownFile) {
  EXPECT_EQ(fs_->OwnerHint("/never"), kNodes);
}

TEST_F(AmfsTest, LocalWriteTouchesNoNetwork) {
  // A node whose metadata happens to be homed locally writes with zero
  // remote traffic. Find a path whose metadata home is node 0 (so a node-0
  // writer stays fully local) by brute-forcing a few candidates through
  // the byte-sum placement rule; the root's home may be any node.
  std::string path;
  for (int i = 0; i < 256; ++i) {
    std::string candidate = "/p" + std::to_string(i);
    std::uint64_t sum = 0;
    for (unsigned char c : candidate) sum += c;
    if (sum % kNodes == 0) {
      path = candidate;
      break;
    }
  }
  ASSERT_FALSE(path.empty());
  const auto sent_before = network_->bytes_sent(0);
  ASSERT_TRUE(WriteFile({0, 0}, path, Bytes::Synthetic(MiB(8), 1)).ok());
  // Only metadata messages may have left node 0 (root-dir link), no data.
  EXPECT_LT(network_->bytes_sent(0) - sent_before, 1024u);
}

}  // namespace
}  // namespace memfs::amfs

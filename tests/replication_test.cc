// Tests for the fault-tolerance extension (§3.2.5, implemented as the
// paper's future work): replicated stripes and metadata, failover reads,
// server-failure injection, and the predicted capacity/traffic penalties.
#include <gtest/gtest.h>

#include "common/units.h"
#include "kvstore/kv_cluster.h"
#include "memfs/memfs.h"
#include "mtc/staging.h"
#include "test_util.h"
#include "testbed_fixture.h"

namespace memfs::fs {
namespace {

using memfs::testing::Await;
using memfs::testing::BedConfig;
using units::KiB;
using units::MiB;

class ReplicationTest : public testing::TestbedFixture {
 protected:
  static constexpr std::uint32_t kNodes = 4;

  void Recreate(std::uint32_t replication, bool degraded_writes = true) {
    workloads::TestbedConfig config = BedConfig(kNodes);
    config.memfs.replication = replication;
    config.memfs.degraded_writes = degraded_writes;
    Build(config);
  }
};

TEST_F(ReplicationTest, RoundTripWithReplication) {
  Recreate(2);
  const Bytes data = Bytes::Synthetic(MiB(2), 11);
  ASSERT_TRUE(WriteFile({0, 0}, "/r2", data).ok());
  auto back = ReadFile({2, 0}, "/r2");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(data));
}

TEST_F(ReplicationTest, StorageDoublesWithReplicationTwo) {
  Recreate(1);
  ASSERT_TRUE(WriteFile({0, 0}, "/a", Bytes::Synthetic(MiB(2), 1)).ok());
  const auto single = storage_->total_memory_used();

  Recreate(2);
  ASSERT_TRUE(WriteFile({0, 0}, "/a", Bytes::Synthetic(MiB(2), 1)).ok());
  const auto doubled = storage_->total_memory_used();
  // The paper's predicted cost: capacity shrinks n-fold.
  EXPECT_NEAR(static_cast<double>(doubled),
              2.0 * static_cast<double>(single),
              0.05 * static_cast<double>(doubled));
}

TEST_F(ReplicationTest, NetworkTrafficDoubles) {
  Recreate(1);
  ASSERT_TRUE(WriteFile({0, 0}, "/t", Bytes::Synthetic(MiB(4), 2)).ok());
  const auto single = network_->total_bytes();

  Recreate(2);
  ASSERT_TRUE(WriteFile({0, 0}, "/t", Bytes::Synthetic(MiB(4), 2)).ok());
  const auto doubled = network_->total_bytes();
  // "n times more data will flow through the network when writing files."
  EXPECT_GT(doubled, single * 18 / 10);
  EXPECT_LT(doubled, single * 22 / 10);
}

TEST_F(ReplicationTest, ReadsSurviveSingleServerFailure) {
  Recreate(2);
  const Bytes data = Bytes::Synthetic(MiB(3), 21);
  ASSERT_TRUE(WriteFile({0, 0}, "/ft", data).ok());

  // Kill each server in turn; every read must still succeed (any single
  // failure leaves one replica of every stripe and record).
  for (std::uint32_t victim = 0; victim < kNodes; ++victim) {
    storage_->SetServerDown(victim, true);
    auto back = ReadFile({(victim + 1) % kNodes, 0}, "/ft");
    ASSERT_TRUE(back.ok()) << "victim " << victim << ": " << back.status();
    EXPECT_TRUE(back->ContentEquals(data)) << victim;
    storage_->SetServerDown(victim, false);
  }
  EXPECT_GT(fs_->stats().replica_failovers, 0u);
}

TEST_F(ReplicationTest, NoReplicationLosesDataOnFailure) {
  Recreate(1);
  ASSERT_TRUE(WriteFile({0, 0}, "/fragile", Bytes::Synthetic(MiB(3), 5)).ok());
  // Some server holds stripes of this file; killing it breaks the read.
  bool any_failure = false;
  for (std::uint32_t victim = 0; victim < kNodes; ++victim) {
    storage_->SetServerDown(victim, true);
    auto back = ReadFile({(victim + 1) % kNodes, 0}, "/fragile");
    if (!back.ok() || back->size() != MiB(3)) any_failure = true;
    storage_->SetServerDown(victim, false);
  }
  EXPECT_TRUE(any_failure);
}

TEST_F(ReplicationTest, MetadataSurvivesFailure) {
  Recreate(2);
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/d")).ok());
  ASSERT_TRUE(WriteFile({1, 0}, "/d/x", Bytes::Copy("payload")).ok());
  for (std::uint32_t victim = 0; victim < kNodes; ++victim) {
    storage_->SetServerDown(victim, true);
    auto info = Await(*sim_, fs_->Stat({0, 0}, "/d/x"));
    ASSERT_TRUE(info.ok()) << victim;
    EXPECT_EQ(info->size, 7u);
    auto listing = Await(*sim_, fs_->ReadDir({2, 0}, "/d"));
    ASSERT_TRUE(listing.ok()) << victim;
    EXPECT_EQ(listing->size(), 1u);
    storage_->SetServerDown(victim, false);
  }
}

TEST_F(ReplicationTest, WritesDegradeGracefullyWhenReplicaDown) {
  Recreate(2);
  storage_->SetServerDown(1, true);
  // Graceful degradation (the default): a replica set that reaches at least
  // one live server acknowledges the write and counts it as degraded.
  const Bytes data = Bytes::Synthetic(MiB(4), 9);
  ASSERT_TRUE(WriteFile({0, 0}, "/wf", data).ok());
  EXPECT_GT(fs_->stats().degraded_writes, 0u);

  // And the surviving copies are complete: bring the victim back (its data
  // intact but missing the degraded stripes) and read everything.
  storage_->SetServerDown(1, false);
  auto back = ReadFile({2, 0}, "/wf");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(data));
}

TEST_F(ReplicationTest, StrictModeWritesFailWhenReplicaDown) {
  Recreate(2, /*degraded_writes=*/false);
  storage_->SetServerDown(1, true);
  // Strict all-replica acks: a large file touching all servers must fail.
  EXPECT_FALSE(WriteFile({0, 0}, "/wf", Bytes::Synthetic(MiB(4), 9)).ok());
  EXPECT_EQ(fs_->stats().degraded_writes, 0u);
}

TEST_F(ReplicationTest, AllReplicasDownReturnsUnavailable) {
  Recreate(2);
  ASSERT_TRUE(WriteFile({0, 0}, "/gone_dark", Bytes::Synthetic(MiB(1), 8)).ok());
  for (std::uint32_t s = 0; s < kNodes; ++s) storage_->SetServerDown(s, true);
  // Nothing is reachable: the failure must surface as UNAVAILABLE ("cannot
  // tell"), never NOT_FOUND ("definitively absent").
  auto info = Await(*sim_, fs_->Stat({0, 0}, "/gone_dark"));
  EXPECT_EQ(info.status().code(), ErrorCode::kUnavailable);
  auto opened = Await(*sim_, fs_->Open({1, 0}, "/gone_dark"));
  EXPECT_EQ(opened.status().code(), ErrorCode::kUnavailable);
}

TEST_F(ReplicationTest, FailoverReadsRepairWipedReplica) {
  Recreate(2);
  const Bytes data = Bytes::Synthetic(MiB(2), 13);
  ASSERT_TRUE(WriteFile({0, 0}, "/heal", data).ok());

  // Crash server 1 and restart it as an empty process: half the replica
  // pairs lost a copy.
  storage_->SetServerDown(1, true);
  storage_->SetServerDown(1, false, /*wipe_on_restart=*/true);
  ASSERT_EQ(storage_->server(1).memory_used(), 0u);

  // Reads fail over to the surviving replica and reinstall the lost copy.
  auto back = ReadFile({2, 0}, "/heal");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(data));
  sim_->Run();  // drain the asynchronous repair writes
  EXPECT_GT(fs_->stats().read_repairs, 0u);
  EXPECT_GT(storage_->server(1).memory_used(), 0u);
}

TEST_F(ReplicationTest, UnlinkRemovesAllReplicas) {
  Recreate(2);
  ASSERT_TRUE(WriteFile({0, 0}, "/gone", Bytes::Synthetic(MiB(2), 3)).ok());
  EXPECT_GT(storage_->total_memory_used(), MiB(4) - KiB(1));
  ASSERT_TRUE(Await(*sim_, fs_->Unlink({1, 0}, "/gone")).ok());
  // Only the root/dir records remain.
  EXPECT_LT(storage_->total_memory_used(), KiB(1));
}

TEST_F(ReplicationTest, ReplicationCappedAtServerCount) {
  Recreate(16);  // more replicas than servers
  const Bytes data = Bytes::Synthetic(KiB(700), 4);
  ASSERT_TRUE(WriteFile({0, 0}, "/cap", data).ok());
  auto back = ReadFile({1, 0}, "/cap");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(data));
}

TEST_F(ReplicationTest, DownServerTimesOutClients) {
  Recreate(1);
  storage_->SetServerDown(2, true);
  const auto t0 = sim_->now();
  auto result = Await(*sim_, storage_->Get(0, 2, "anything"));
  EXPECT_EQ(result.status().code(), ErrorCode::kUnavailable);
  EXPECT_GE(sim_->now() - t0, units::Millis(1));
  // The client retried (with backoff) before giving up.
  EXPECT_GT(storage_->stats().retries, 0u);
}

TEST_F(ReplicationTest, StageOutSurvivesRuntimeServerFailure) {
  // End-to-end payoff: results written with replication survive a runtime
  // server crash long enough to be staged out to permanent storage.
  Recreate(2);
  // A separate, healthy "permanent" deployment on the same fabric.
  testing::SecondDeployment archive(*bed_, {0, 1});
  MemFs& permanent = archive.fs;

  std::vector<std::string> results;
  for (int f = 0; f < 6; ++f) {
    const std::string path = "/result_" + std::to_string(f);
    ASSERT_TRUE(WriteFile({0, 0}, path, Bytes::Synthetic(MiB(1), f)).ok());
    results.push_back(path);
  }

  storage_->SetServerDown(1, true);  // runtime server dies post-workflow

  mtc::Stager stager(*sim_, {.streams = 4, .nodes = kNodes});
  const auto report = stager.CopyFiles(*fs_, permanent, results);
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_EQ(report.files, 6u);
  EXPECT_EQ(report.bytes, MiB(6));
  EXPECT_GT(fs_->stats().replica_failovers, 0u);

  // And the archived copies are intact.
  for (int f = 0; f < 6; ++f) {
    const auto back = testing::ReadFile(*sim_, permanent, {2, 0},
                                        "/result_" + std::to_string(f));
    const bool verified =
        back.ok() && back->ContentEquals(Bytes::Synthetic(
                         MiB(1), static_cast<std::uint64_t>(f)));
    EXPECT_TRUE(verified) << f;
  }
}

}  // namespace
}  // namespace memfs::fs

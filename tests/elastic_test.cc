// Tests for the elastic scale-out extension (§5's future work): ring
// epochs, AddStorageServer, placement of new vs old files, interaction with
// ketama's minimal remapping, and the live-membership machinery (KetamaRing
// deltas, HandoffGate, Membership routing, Migrator end-to-end).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "hash/distributor.h"
#include "kvstore/kv_cluster.h"
#include "kvstore/membership.h"
#include "kvstore/migrator.h"
#include "memfs/memfs.h"
#include "memfs/striper.h"
#include "sim/task.h"
#include "test_util.h"
#include "testbed_fixture.h"

namespace memfs::fs {
namespace {

using memfs::testing::Await;
using memfs::testing::BedConfig;
using units::KiB;
using units::MiB;

class ElasticTest : public testing::TestbedFixture {
 protected:
  static constexpr std::uint32_t kInitial = 4;
  static constexpr std::uint32_t kStandby = 2;

  void Recreate(bool ketama) {
    workloads::TestbedConfig config = BedConfig(kInitial, kStandby);
    config.memfs.use_ketama = ketama;
    Build(config);
  }
};

TEST_F(ElasticTest, AddServerOpensNewEpoch) {
  Recreate(/*ketama=*/true);
  EXPECT_EQ(fs_->current_epoch(), 0u);
  EXPECT_EQ(storage_->server_count(), 4u);
  const auto epoch = fs_->AddStorageServer(4);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(fs_->current_epoch(), 1u);
  EXPECT_EQ(storage_->server_count(), 5u);
  EXPECT_EQ(fs_->distributor().server_count(), 5u);
}

TEST_F(ElasticTest, OldFilesReadableAfterScaleOut) {
  Recreate(/*ketama=*/true);
  const Bytes old_data = Bytes::Synthetic(MiB(3), 17);
  ASSERT_TRUE(WriteFile({0, 0}, "/old", old_data).ok());

  (void)fs_->AddStorageServer(4);
  (void)fs_->AddStorageServer(5);

  // Old file still reads correctly (its stripes were never moved).
  auto back = ReadFile({2, 0}, "/old");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(old_data));
  // And the new server holds none of it.
  EXPECT_EQ(storage_->server(4).memory_used(), 0u);
  EXPECT_EQ(storage_->server(5).memory_used(), 0u);
}

TEST_F(ElasticTest, NewFilesUseNewServers) {
  Recreate(/*ketama=*/true);
  (void)fs_->AddStorageServer(4);
  // Enough stripes that the 5-server ring statistically must touch server 4.
  for (int f = 0; f < 8; ++f) {
    ASSERT_TRUE(WriteFile({static_cast<net::NodeId>(f % 4), 0},
                          "/new_" + std::to_string(f),
                          Bytes::Synthetic(MiB(4), f))
                    .ok());
  }
  EXPECT_GT(storage_->server(4).memory_used(), 0u);
  // And the new files read back fine from any node, including the new one.
  auto back = ReadFile({4, 0}, "/new_3");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(Bytes::Synthetic(MiB(4), 3)));
}

TEST_F(ElasticTest, MixedEpochFilesCoexist) {
  Recreate(/*ketama=*/true);
  ASSERT_TRUE(WriteFile({0, 0}, "/e0", Bytes::Synthetic(MiB(2), 1)).ok());
  (void)fs_->AddStorageServer(4);
  ASSERT_TRUE(WriteFile({1, 0}, "/e1", Bytes::Synthetic(MiB(2), 2)).ok());
  (void)fs_->AddStorageServer(5);
  ASSERT_TRUE(WriteFile({2, 0}, "/e2", Bytes::Synthetic(MiB(2), 3)).ok());

  for (int f = 0; f < 3; ++f) {
    const std::string path = "/e" + std::to_string(f);
    auto back = ReadFile({3, 0}, path);
    ASSERT_TRUE(back.ok()) << path;
    EXPECT_TRUE(back->ContentEquals(Bytes::Synthetic(MiB(2), f + 1))) << path;
    auto info = Await(*sim_, fs_->Stat({0, 0}, path));
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->size, MiB(2));
  }
}

TEST_F(ElasticTest, WorksWithModuloToo) {
  // Epoch pinning makes even modulo safe across scale-outs (no remapping of
  // existing files to worry about).
  Recreate(/*ketama=*/false);
  const Bytes data = Bytes::Synthetic(MiB(2), 9);
  ASSERT_TRUE(WriteFile({0, 0}, "/m0", data).ok());
  (void)fs_->AddStorageServer(4);
  ASSERT_TRUE(WriteFile({0, 0}, "/m1", data).ok());
  EXPECT_TRUE(ReadFile({1, 0}, "/m0")->ContentEquals(data));
  EXPECT_TRUE(ReadFile({1, 0}, "/m1")->ContentEquals(data));
}

TEST_F(ElasticTest, EpochSurvivesInMetadataRecord) {
  Recreate(/*ketama=*/true);
  (void)fs_->AddStorageServer(4);
  ASSERT_TRUE(WriteFile({0, 0}, "/tagged", Bytes::Synthetic(KiB(10), 1)).ok());
  // The record's home is epoch-0 placement; search the original servers and
  // check the stored record carries the write-time epoch.
  bool found = false;
  for (std::uint32_t srv = 0; srv < 4; ++srv) {
    auto direct = storage_->server(srv).Get("/tagged");
    if (direct.ok()) {
      auto decoded = meta::DecodePathRecord(direct.value(), nullptr);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded->epoch, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ElasticTest, LeftServerFailsReadsPermanently) {
  // Satellite of the membership work: with epoch pinning (no migrator), a
  // server that drained away takes its un-migrated stripes with it. Reads
  // must trip the distinct non-retryable UNAVAILABLE_PERMANENT, not spin
  // retries against data that no longer exists.
  Recreate(/*ketama=*/true);
  ASSERT_TRUE(WriteFile({0, 0}, "/pin", Bytes::Synthetic(MiB(2), 5)).ok());
  const std::uint32_t holder =
      fs_->distributor().ServerFor(Striper::StripeKey("/pin", 0));
  storage_->SetServerLeft(holder);
  EXPECT_TRUE(storage_->IsServerLeft(holder));
  auto back = ReadFile({1, 0}, "/pin");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), ErrorCode::kUnavailablePermanent);
  EXPECT_FALSE(IsRetryable(back.status().code()));
}

// ---------------------------------------------------------------------------
// KetamaRing membership deltas

std::vector<std::uint32_t> Iota(std::uint32_t n) {
  std::vector<std::uint32_t> members(n);
  for (std::uint32_t i = 0; i < n; ++i) members[i] = i;
  return members;
}

TEST(KetamaRingDeltaTest, FullSetMatchesKetamaDistributor) {
  const hash::KetamaRing ring(Iota(8), 160);
  const hash::KetamaDistributor dist(8, 160);
  for (int i = 0; i < 256; ++i) {
    const std::string key = "obj-" + std::to_string(i);
    EXPECT_EQ(ring.ServerFor(key), dist.ServerFor(key));
    const auto chain = ring.ReplicaChain(key, 2);
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain[0], dist.ServerFor(key));
    EXPECT_EQ(chain[1], (ring.OwnerRank(key) + 1) % 8);
  }
}

TEST(KetamaRingDeltaTest, JoinMovesOnlyAMinimalShareOntoTheNewMember) {
  const hash::KetamaRing before(Iota(8));
  const hash::KetamaRing after(Iota(9));
  const int kKeys = 2000;
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "obj-" + std::to_string(i);
    const std::uint32_t was = before.ServerFor(key);
    const std::uint32_t now = after.ServerFor(key);
    if (was != now) {
      ++moved;
      // Minimal movement: a key only ever moves onto the joining member.
      EXPECT_EQ(now, 8u) << key;
    }
  }
  // Expected share is 1/9 ~ 11%; allow a generous band for hash variance.
  EXPECT_GT(moved, kKeys * 4 / 100);
  EXPECT_LT(moved, kKeys * 25 / 100);
}

TEST(KetamaRingDeltaTest, LeaveMovesOnlyTheDepartedMembersKeys) {
  const hash::KetamaRing before(Iota(8));
  std::vector<std::uint32_t> rest;
  for (std::uint32_t i = 0; i < 8; ++i) {
    if (i != 3) rest.push_back(i);
  }
  const hash::KetamaRing after(rest);
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "obj-" + std::to_string(i);
    const std::uint32_t was = before.ServerFor(key);
    const std::uint32_t now = after.ServerFor(key);
    if (was != 3) {
      EXPECT_EQ(now, was) << key;  // untouched placements stay put
    } else {
      EXPECT_NE(now, 3u) << key;
    }
  }
}

TEST(KetamaRingDeltaTest, DrainThenRejoinRestoresPlacement) {
  // A member that leaves and later rejoins (same identity) gets exactly its
  // old vnode positions back: placement is a pure function of the member set.
  const hash::KetamaRing original(Iota(6));
  std::vector<std::uint32_t> without;
  for (std::uint32_t i = 0; i < 6; ++i) {
    if (i != 2) without.push_back(i);
  }
  const hash::KetamaRing drained(without);
  const hash::KetamaRing rejoined(Iota(6));
  for (int i = 0; i < 500; ++i) {
    const std::string key = "obj-" + std::to_string(i);
    EXPECT_EQ(original.ServerFor(key), rejoined.ServerFor(key));
    EXPECT_NE(drained.ServerFor(key), 2u);
  }
}

// ---------------------------------------------------------------------------
// HandoffGate

sim::Task GateWriter(sim::Simulation& sim, kv::HandoffGate& gate,
                     std::string key, sim::SimTime hold,
                     sim::SimTime& entered) {
  co_await gate.EnterWriter(key);
  entered = sim.now();
  co_await sim.Delay(hold);
  gate.ExitWriter(key);
}

sim::Task GateLocker(sim::Simulation& sim, kv::HandoffGate& gate,
                     std::string key, sim::SimTime hold,
                     sim::SimTime& locked_at) {
  co_await gate.Lock(key);
  locked_at = sim.now();
  // lint: allow(await-held-lock) the test exists to hold the lock across time
  co_await sim.Delay(hold);
  gate.Unlock(key);
}

TEST(HandoffGateTest, LockerWaitsForWritersAndBlocksNewWriters) {
  using units::Millis;
  sim::Simulation sim;
  kv::HandoffGate gate(sim);
  sim::SimTime w1 = 1, w2 = 1, w3 = 1, locked_at = 1;
  // Two concurrent writers enter immediately; the locker must wait for both;
  // a writer arriving behind the queued locker waits out the whole handoff.
  GateWriter(sim, gate, "k", Millis(2), w1);
  GateWriter(sim, gate, "k", Millis(3), w2);
  GateLocker(sim, gate, "k", Millis(5), locked_at);
  GateWriter(sim, gate, "k", Millis(1), w3);
  sim.Run();
  EXPECT_EQ(w1, 0u);
  EXPECT_EQ(w2, 0u);
  EXPECT_EQ(locked_at, Millis(3));       // after the slower writer exits
  EXPECT_EQ(w3, Millis(3) + Millis(5));  // after the handoff unlocks
  EXPECT_FALSE(gate.locked("k"));
  EXPECT_EQ(gate.writers("k"), 0u);
}

TEST(HandoffGateTest, IndependentKeysDoNotInterfere) {
  using units::Millis;
  sim::Simulation sim;
  kv::HandoffGate gate(sim);
  sim::SimTime locked_a = 1, writer_b = 1;
  GateLocker(sim, gate, "a", Millis(10), locked_a);
  GateWriter(sim, gate, "b", Millis(1), writer_b);
  sim.Run();
  EXPECT_EQ(locked_a, 0u);
  EXPECT_EQ(writer_b, 0u);  // "b" is not gated by the handoff of "a"
}

TEST_F(ElasticTest, MetadataCodecEpochRoundTrip) {
  const Bytes record = meta::EncodeFileRecord(
      {.size = 12345, .sealed = true, .epoch = 7});
  EXPECT_EQ(record.view(), "F 12345 1 7\n");
  auto decoded = meta::DecodePathRecord(record, nullptr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size, 12345u);
  EXPECT_TRUE(decoded->sealed);
  EXPECT_EQ(decoded->epoch, 7u);
  // Legacy record without epoch still parses (defaults to epoch 0).
  decoded = meta::DecodePathRecord(Bytes::Copy("F 42 1\n"), nullptr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->epoch, 0u);
}

// ---------------------------------------------------------------------------
// Membership lifecycle and routing

TEST(MembershipTest, LifecycleAndMonotoneEpochs) {
  workloads::Testbed bed(workloads::FsKind::kMemFs, BedConfig(4, 2));
  sim::Simulation& sim = bed.simulation();
  kv::KvCluster& storage = *bed.storage();
  kv::Membership membership(sim, storage);

  EXPECT_EQ(membership.epoch(), 0u);
  EXPECT_FALSE(membership.migrating());
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(membership.state(s), kv::NodeState::kActive);
  }

  const std::uint32_t joined = membership.BeginJoin(4);
  EXPECT_EQ(joined, 4u);
  EXPECT_EQ(membership.epoch(), 1u);
  EXPECT_TRUE(membership.migrating());
  EXPECT_EQ(membership.state(4), kv::NodeState::kJoining);
  EXPECT_EQ(membership.member_count(), 5u);
  EXPECT_EQ(membership.transition_server(), 4u);
  membership.CommitTransition();
  EXPECT_FALSE(membership.migrating());
  EXPECT_EQ(membership.state(4), kv::NodeState::kActive);

  membership.BeginDrain(1);
  EXPECT_EQ(membership.epoch(), 2u);
  EXPECT_EQ(membership.state(1), kv::NodeState::kDraining);
  EXPECT_EQ(membership.member_count(), 4u);  // ring already excludes it
  membership.CommitTransition();
  EXPECT_EQ(membership.state(1), kv::NodeState::kLeft);
  EXPECT_TRUE(storage.IsServerLeft(1));

  // The retired index never returns; a rejoin is a brand-new server.
  const std::uint32_t rejoined = membership.BeginJoin(5);
  EXPECT_EQ(rejoined, 5u);
  EXPECT_EQ(membership.epoch(), 3u);
  membership.CommitTransition();
  EXPECT_EQ(membership.member_count(), 5u);
}

TEST(MembershipTest, RoutingDuringPendingHandoff) {
  workloads::Testbed bed(workloads::FsKind::kMemFs, BedConfig(4, 2));
  sim::Simulation& sim = bed.simulation();
  kv::KvCluster& storage = *bed.storage();
  kv::MembershipConfig config;
  config.replication = 2;
  kv::Membership membership(sim, storage, config);
  membership.BeginJoin(4);

  std::string moving;
  std::string staying;
  for (int i = 0; i < 2000 && (moving.empty() || staying.empty()); ++i) {
    const std::string key = "route-" + std::to_string(i);
    if (membership.KeyMoves(key)) {
      if (moving.empty()) moving = key;
    } else if (staying.empty()) {
      staying = key;
    }
  }
  ASSERT_FALSE(moving.empty());
  ASSERT_FALSE(staying.empty());

  // A key that stays is never gated and routes straight through.
  EXPECT_FALSE(membership.ShouldGate(staying));
  const auto stay_route = membership.RouteWrite(staying);
  EXPECT_EQ(stay_route.primary, membership.ring().ReplicaChain(staying, 2));
  EXPECT_TRUE(stay_route.secondary.empty());
  EXPECT_EQ(membership.ReadChain(staying),
            membership.ring().ReplicaChain(staying, 2));

  // A moving key: old chain stays authoritative, new-chain extras get the
  // dual-commit, and reads cover the union (new ring first).
  EXPECT_TRUE(membership.ShouldGate(moving));
  const auto old_chain = membership.old_ring()->ReplicaChain(moving, 2);
  const auto new_chain = membership.ring().ReplicaChain(moving, 2);
  const auto route = membership.RouteWrite(moving);
  EXPECT_EQ(route.primary, old_chain);
  ASSERT_FALSE(route.secondary.empty());
  for (std::uint32_t server : route.secondary) {
    EXPECT_TRUE(std::find(new_chain.begin(), new_chain.end(), server) !=
                new_chain.end());
    EXPECT_TRUE(std::find(old_chain.begin(), old_chain.end(), server) ==
                old_chain.end());
  }
  const auto read_chain = membership.ReadChain(moving);
  ASSERT_GE(read_chain.size(), new_chain.size());
  for (std::size_t i = 0; i < new_chain.size(); ++i) {
    EXPECT_EQ(read_chain[i], new_chain[i]);  // new ring consulted first
  }
  for (std::uint32_t server : old_chain) {
    EXPECT_TRUE(std::find(read_chain.begin(), read_chain.end(), server) !=
                read_chain.end());
  }

  // Once the handoff commits, the key routes purely via the new ring.
  membership.MarkCommitted(moving);
  EXPECT_FALSE(membership.ShouldGate(moving));
  const auto committed_route = membership.RouteWrite(moving);
  EXPECT_EQ(committed_route.primary, new_chain);
  EXPECT_TRUE(committed_route.secondary.empty());
  EXPECT_EQ(membership.ReadChain(moving), new_chain);
}

// ---------------------------------------------------------------------------
// Migrator end-to-end on a live file system

class ElasticClusterTest : public testing::TestbedFixture {
 protected:
  static constexpr std::uint32_t kServers = 4;
  static constexpr std::uint32_t kFiles = 12;

  void Create(std::uint32_t replication) {
    workloads::TestbedConfig config = BedConfig(kServers, 2);
    config.memfs.replication = replication;
    config.elastic = true;  // ketama, membership and migrator
    Build(config);
  }

  void WriteCorpus() {
    for (std::uint32_t f = 0; f < kFiles; ++f) {
      ASSERT_TRUE(WriteFile({f % kServers, 0}, "/data_" + std::to_string(f),
                            Bytes::Synthetic(MiB(1), 100 + f))
                      .ok())
          << f;
    }
  }

  void ExpectCorpusIntact() {
    for (std::uint32_t f = 0; f < kFiles; ++f) {
      auto back = ReadFile({(f + 1) % kServers, 0},
                           "/data_" + std::to_string(f));
      ASSERT_TRUE(back.ok()) << f << ": " << back.status().message();
      EXPECT_TRUE(back->ContentEquals(Bytes::Synthetic(MiB(1), 100 + f)))
          << f;
    }
  }

};

TEST_F(ElasticClusterTest, JoinRebalancesOntoTheNewServer) {
  Create(/*replication=*/1);
  WriteCorpus();
  ASSERT_EQ(storage_->server_count(), 4u);  // standby not yet a kv server

  ASSERT_EQ(membership_->BeginJoin(4), 4u);
  ASSERT_EQ(storage_->server(4).memory_used(), 0u);
  const Status status = Await(*sim_, migrator_->Rebalance());
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_FALSE(membership_->migrating());
  EXPECT_EQ(membership_->state(4), kv::NodeState::kActive);

  // The new server now owns its ~1/5 share, and with replication 1 every
  // moved byte landed exactly there.
  EXPECT_GT(storage_->server(4).memory_used(), 0u);
  const auto& progress = migrator_->progress();
  EXPECT_GT(progress.keys_moved, 0u);
  EXPECT_EQ(progress.keys_moved, progress.keys_total);
  EXPECT_EQ(progress.bytes_moved, storage_->server(4).memory_used());
  EXPECT_FALSE(progress.active);

  ExpectCorpusIntact();
  // And the grown cluster keeps serving new writes, including via new node.
  ASSERT_TRUE(
      WriteFile({4, 0}, "/after_join", Bytes::Synthetic(MiB(1), 77)).ok());
  EXPECT_TRUE(ReadFile({0, 0}, "/after_join")
                  ->ContentEquals(Bytes::Synthetic(MiB(1), 77)));
}

TEST_F(ElasticClusterTest, DrainReachesLeftAndMovesItsShare) {
  Create(/*replication=*/1);
  WriteCorpus();
  const std::uint64_t owned = storage_->server(1).memory_used();
  ASSERT_GT(owned, 0u);

  membership_->BeginDrain(1);
  const Status status = Await(*sim_, migrator_->Rebalance());
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_FALSE(membership_->migrating());
  EXPECT_EQ(membership_->state(1), kv::NodeState::kLeft);
  EXPECT_TRUE(storage_->IsServerLeft(1));
  // Exactly the drained server's share crossed the fabric, and its slot was
  // reclaimed at LEFT.
  EXPECT_EQ(migrator_->progress().bytes_moved, owned);
  EXPECT_EQ(storage_->server(1).memory_used(), 0u);

  ExpectCorpusIntact();
  ASSERT_TRUE(
      WriteFile({2, 0}, "/after_drain", Bytes::Synthetic(MiB(1), 88)).ok());
  EXPECT_TRUE(ReadFile({3, 0}, "/after_drain")
                  ->ContentEquals(Bytes::Synthetic(MiB(1), 88)));
}

TEST_F(ElasticClusterTest, ReplicatedDrainKeepsEveryFileReadable) {
  Create(/*replication=*/2);
  WriteCorpus();
  membership_->BeginDrain(2);
  const Status status = Await(*sim_, migrator_->Rebalance());
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(membership_->state(2), kv::NodeState::kLeft);
  ExpectCorpusIntact();
}

TEST_F(ElasticClusterTest, MigratorResumesIdempotentlyAfterSourceOutage) {
  Create(/*replication=*/1);
  WriteCorpus();
  // Take a source down; a bounded run cannot converge and must leave the
  // transition open instead of committing a half-moved ring.
  storage_->SetServerDown(0, /*down=*/true, /*wipe=*/false);
  membership_->BeginJoin(4);
  kv::MigratorConfig bounded;
  bounded.max_sweeps = 2;
  kv::Migrator first_attempt(*sim_, *membership_, bounded);
  const Status gave_up = Await(*sim_, first_attempt.Rebalance());
  ASSERT_FALSE(gave_up.ok());
  EXPECT_TRUE(membership_->migrating());
  EXPECT_EQ(membership_->state(4), kv::NodeState::kJoining);

  // The source restarts (data intact); a fresh run resumes from whatever the
  // first attempt managed and converges without double-moving anything.
  // (Let the source's circuit breaker lapse back to half-open first, as any
  // real re-run happening later in wall-clock time would.)
  storage_->SetServerDown(0, /*down=*/false, /*wipe=*/false);
  sim_->Schedule(units::Millis(6), [] {});
  sim_->Run();
  kv::Migrator second_attempt(*sim_, *membership_, bounded);
  const Status resumed = Await(*sim_, second_attempt.Rebalance());
  ASSERT_TRUE(resumed.ok()) << resumed.message();
  EXPECT_FALSE(membership_->migrating());
  EXPECT_EQ(membership_->state(4), kv::NodeState::kActive);
  const std::uint64_t landed = storage_->server(4).memory_used();
  EXPECT_EQ(first_attempt.progress().bytes_moved +
                second_attempt.progress().bytes_moved,
            landed);
  ExpectCorpusIntact();
}

}  // namespace
}  // namespace memfs::fs

// Tests for the token-range-sharded metadata service (src/meta) and its
// MemFS integration: token-range math, record codecs (the paper's path-keyed
// records too), sharded namespace operations end-to-end, paged readdir
// (including cursor stability across membership epochs and bulk-loaded big
// directories), rename and hard-link semantics, agreement with AMFS listings
// and with the append_log mode's error codes, and a chaos test that crashes
// metadata shards mid-cross-directory-rename and proves recovery leaves no
// dangling dentries or orphaned inodes.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "amfs/amfs.h"
#include "common/units.h"
#include "kvstore/kv_cluster.h"
#include "memfs/memfs.h"
#include "meta/client.h"
#include "meta/meta.h"
#include "sim/fault.h"
#include "test_util.h"
#include "testbed_fixture.h"
#include "workloads/testbed.h"

namespace memfs::meta {
namespace {

using memfs::testing::Await;
using memfs::testing::BedConfig;
using units::KiB;
using units::MiB;
using units::Millis;

// --- Token-range math ----------------------------------------------------

TEST(TokenRangeTest, RangesTileTheTokenSpace) {
  for (std::uint32_t shards : {1u, 2u, 3u, 8u, 64u}) {
    std::uint64_t expected_lo = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const TokenRange range = RangeOfShard(s, shards);
      EXPECT_EQ(range.lo, expected_lo);
      EXPECT_EQ(ShardOfToken(range.lo, shards), s);
      // The last token of the range still belongs to the range.
      const std::uint64_t last =
          (range.hi == 0 ? ~std::uint64_t{0} : range.hi - 1);
      EXPECT_EQ(ShardOfToken(last, shards), s);
      expected_lo = range.hi;
    }
    // The final range wraps to 0, i.e. covers through 2^64 - 1.
    EXPECT_EQ(expected_lo, 0u);
  }
}

TEST(TokenRangeTest, ShardOfTokenAlwaysInBounds) {
  for (std::uint32_t shards : {1u, 3u, 7u, 16u}) {
    for (std::uint64_t token :
         {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0} / 2,
          ~std::uint64_t{0} - 1, ~std::uint64_t{0}}) {
      EXPECT_LT(ShardOfToken(token, shards), shards);
    }
  }
}

TEST(TokenRangeTest, SplitMergeRoundTrip) {
  const TokenRange whole = RangeOfShard(0, 4);
  TokenRange left, right;
  ASSERT_TRUE(SplitRange(whole, &left, &right));
  EXPECT_EQ(left.lo, whole.lo);
  EXPECT_EQ(left.hi, right.lo);
  EXPECT_EQ(right.hi, whole.hi);

  TokenRange merged;
  ASSERT_TRUE(MergeRanges(left, right, &merged));
  EXPECT_EQ(merged, whole);
  // Order-insensitive merge, but non-adjacent ranges refuse.
  ASSERT_TRUE(MergeRanges(right, left, &merged));
  EXPECT_EQ(merged, whole);
  EXPECT_FALSE(MergeRanges(RangeOfShard(0, 4), RangeOfShard(2, 4), &merged));

  // Width-1 ranges cannot split.
  TokenRange unit{10, 11};
  EXPECT_FALSE(SplitRange(unit, &left, &right));
}

TEST(TokenRangeTest, NameTokensAreDeterministicAndBounded) {
  EXPECT_EQ(NameToken(7, "file_3"), NameToken(7, "file_3"));
  // Sibling directories stripe independently: the ino is in the hash input.
  EXPECT_NE(NameToken(7, "file_3"), NameToken(8, "file_3"));
  for (std::uint32_t shards : {1u, 2u, 8u}) {
    EXPECT_LT(ShardOfName(7, "file_3", shards), shards);
  }
  EXPECT_EQ(ShardOfName(7, "anything", 1), 0u);
}

// --- Codecs --------------------------------------------------------------

TEST(MetaCodecTest, InodeRoundTrip) {
  InodeRecord rec;
  rec.kind = InodeKind::kDirectory;
  rec.size = 123456789;
  rec.sealed = true;
  rec.epoch = 3;
  rec.nlink = 2;
  auto back = DecodeInode(EncodeInode(rec));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, rec.kind);
  EXPECT_EQ(back->size, rec.size);
  EXPECT_EQ(back->sealed, rec.sealed);
  EXPECT_EQ(back->epoch, rec.epoch);
  EXPECT_EQ(back->nlink, rec.nlink);
  EXPECT_FALSE(DecodeInode(Bytes::Copy("bogus")).ok());
}

TEST(MetaCodecTest, DentryRoundTrip) {
  auto back = DecodeDentry(EncodeDentry({42, InodeKind::kDirectory}));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ino, 42u);
  EXPECT_EQ(back->kind, InodeKind::kDirectory);
  EXPECT_FALSE(DecodeDentry(Bytes::Copy("")).ok());
}

TEST(MetaCodecTest, IntentRoundTrip) {
  RenameIntent intent;
  intent.ino = 99;
  intent.kind = InodeKind::kFile;
  intent.src_parent = 2;
  intent.dst_parent = 3;
  intent.src_name = "old name";
  intent.dst_name = "new";
  auto back = DecodeIntent(EncodeIntent(intent));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, intent);
}

TEST(MetaCodecTest, FoldIndexAppliesEventsInOrder) {
  Bytes blob = IndexHeader();
  blob.Append(DirEvent("b", false));
  blob.Append(DirEvent("a", false));
  blob.Append(DirEvent("a", false));  // duplicate add is idempotent
  blob.Append(DirEvent("b", true));   // tombstone
  blob.Append(DirEvent("c", false));
  auto names = FoldIndex(blob);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"a", "c"}));
  EXPECT_FALSE(FoldIndex(Bytes::Copy("not an index")).ok());
}

TEST(MetaCodecTest, KeysAreDisjointNamespaces) {
  EXPECT_EQ(InodeKey(7), "i/7");
  EXPECT_EQ(DentryKey(7, "a"), "d/7/a");
  EXPECT_EQ(IndexKey(7, 3), "x/7.3");
  EXPECT_EQ(IntentKey(7), "r/7");
}

// --- Path-keyed records (append_log) ------------------------------------

TEST(MetadataTest, FileRecordRoundTrip) {
  const Bytes sealed = EncodeFileRecord({.size = 123456, .sealed = true});
  EXPECT_EQ(sealed.view(), "F 123456 1\n");
  auto decoded = DecodePathRecord(sealed, nullptr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, InodeKind::kFile);
  EXPECT_EQ(decoded->size, 123456u);
  EXPECT_TRUE(decoded->sealed);

  decoded = DecodePathRecord(EncodeFileRecord({}), nullptr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->sealed);
}

TEST(MetadataTest, DirectoryEventLogFolds) {
  Bytes dir = DirRecordHeader();
  dir.Append(DirEvent("a", false));
  dir.Append(DirEvent("b", false));
  dir.Append(DirEvent("a", true));   // delete a
  dir.Append(DirEvent("c", false));
  std::vector<std::string> names;
  auto decoded = DecodePathRecord(dir, &names);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, InodeKind::kDirectory);
  EXPECT_EQ(names, (std::vector<std::string>{"b", "c"}));
}

TEST(MetadataTest, RecreatedNameReappears) {
  Bytes dir = DirRecordHeader();
  dir.Append(DirEvent("x", false));
  dir.Append(DirEvent("x", true));
  dir.Append(DirEvent("x", false));
  std::vector<std::string> names;
  ASSERT_TRUE(DecodePathRecord(dir, &names).ok());
  EXPECT_EQ(names, (std::vector<std::string>{"x"}));
}

TEST(MetadataTest, MalformedRecordsRejected) {
  for (const Bytes& bad :
       {Bytes::Copy(""), Bytes::Copy("Z nonsense"), Bytes::Copy("F"),
        Bytes::Copy("F abc 1\n"), Bytes::Synthetic(100, 1)}) {
    EXPECT_FALSE(DecodePathRecord(bad, nullptr).ok());
  }
}

// --- Sharded MemFS end-to-end --------------------------------------------

class MetaFsTest : public testing::TestbedFixture {
 protected:
  // 6-node fabric, storage on the first 4: node 4 stays free for the
  // AddStorageServer epoch-change test.
  static constexpr std::uint32_t kFabricNodes = 6;
  static constexpr std::uint32_t kServers = 4;

  MetaFsTest() {
    fs::MemFsConfig config;
    config.metadata = MetadataMode::kSharded;
    Recreate(config);
  }

  void Recreate(fs::MemFsConfig config) {
    workloads::TestbedConfig testbed =
        BedConfig(kServers, kFabricNodes - kServers);
    testbed.memfs = config;
    Build(testbed);
  }

  // Reads `key` straight from every server, expects each copy to fold to
  // exactly `names`, and returns how many servers hold one.
  std::uint32_t CopiesFoldingTo(const std::string& key,
                                const std::vector<std::string>& names) {
    std::uint32_t copies = 0;
    for (std::uint32_t s = 0; s < storage_->server_count(); ++s) {
      auto blob = storage_->server(s).Get(key);
      if (!blob.ok()) continue;
      ++copies;
      auto folded = FoldIndex(blob.value());
      EXPECT_TRUE(folded.ok() && *folded == names) << key << " on " << s;
    }
    return copies;
  }

  // Drains a listing through the paged interface, recording page sizes.
  Result<std::vector<std::string>> PagedNames(const std::string& dir,
                                              std::uint32_t limit,
                                              std::vector<std::size_t>* pages =
                                                  nullptr) {
    std::vector<std::string> names;
    fs::DirCursor cursor;
    while (true) {
      auto page = Await(*sim_, fs_->ReadDirPage({0, 0}, dir, cursor, limit));
      if (!page.ok()) return page.status();
      if (pages != nullptr) pages->push_back(page->entries.size());
      for (const auto& info : page->entries) names.push_back(info.name);
      if (!page->more) break;
      cursor = page->next;
    }
    return names;
  }
};

TEST_F(MetaFsTest, WriteReadRoundTrip) {
  const Bytes data = Bytes::Synthetic(MiB(2) + 123, 5);
  ASSERT_TRUE(WriteFile({0, 0}, "/f", data).ok());
  auto back = ReadFile({2, 0}, "/f");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(data));

  auto info = Await(*sim_, fs_->Stat({1, 0}, "/f"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, data.size());
  EXPECT_FALSE(info->is_directory);
  EXPECT_TRUE(info->sealed);
}

TEST_F(MetaFsTest, NamespaceOperations) {
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/dir")).ok());
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/dir/sub")).ok());
  ASSERT_TRUE(WriteFile({1, 0}, "/dir/b", Bytes::Copy("2")).ok());
  ASSERT_TRUE(WriteFile({2, 0}, "/dir/a", Bytes::Copy("1")).ok());

  // Listings are sorted regardless of creation order.
  auto listing = Await(*sim_, fs_->ReadDir({3, 0}, "/dir"));
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), 3u);
  EXPECT_EQ((*listing)[0].name, "a");
  EXPECT_EQ((*listing)[1].name, "b");
  EXPECT_EQ((*listing)[2].name, "sub");

  // Duplicate create/mkdir lose; rmdir refuses non-empty directories.
  EXPECT_EQ(Await(*sim_, fs_->Mkdir({0, 0}, "/dir")).code(),
            ErrorCode::kExists);
  EXPECT_EQ(Await(*sim_, fs_->Create({0, 0}, "/dir/a")).status().code(),
            ErrorCode::kExists);
  EXPECT_EQ(Await(*sim_, fs_->Rmdir({0, 0}, "/dir")).code(),
            ErrorCode::kNotEmpty);

  ASSERT_TRUE(Await(*sim_, fs_->Unlink({0, 0}, "/dir/a")).ok());
  ASSERT_TRUE(Await(*sim_, fs_->Unlink({0, 0}, "/dir/b")).ok());
  ASSERT_TRUE(Await(*sim_, fs_->Rmdir({0, 0}, "/dir/sub")).ok());
  ASSERT_TRUE(Await(*sim_, fs_->Rmdir({0, 0}, "/dir")).ok());
  EXPECT_EQ(Await(*sim_, fs_->Stat({0, 0}, "/dir")).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(MetaFsTest, UnlinkReclaimsStripes) {
  const std::uint64_t size = MiB(2);
  ASSERT_TRUE(WriteFile({0, 0}, "/gone", Bytes::Synthetic(size, 3)).ok());
  const auto used_before = storage_->total_memory_used();
  EXPECT_GE(used_before, size);
  ASSERT_TRUE(Await(*sim_, fs_->Unlink({1, 0}, "/gone")).ok());
  EXPECT_LT(storage_->total_memory_used(), used_before - size + KiB(8));
}

TEST_F(MetaFsTest, PagedReaddirBoundsEveryPage) {
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/d")).ok());
  std::vector<std::string> expected;
  for (int i = 0; i < 40; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(WriteFile({0, 0}, "/d/" + name, Bytes::Copy("x")).ok());
    expected.push_back(name);
  }
  std::sort(expected.begin(), expected.end());

  std::vector<std::size_t> pages;
  auto names = PagedNames("/d", 7, &pages);
  ASSERT_TRUE(names.ok());
  for (std::size_t size : pages) EXPECT_LE(size, 7u);
  EXPECT_GT(pages.size(), 1u);

  // Paged union == full listing == sorted creation set, no duplicates.
  // (Pages arrive in shard-major order; the full listing is globally sorted.)
  std::vector<std::string> sorted = *names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, expected);
  auto full = Await(*sim_, fs_->ReadDir({1, 0}, "/d"));
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ((*full)[i].name, sorted[i]);
  }
}

TEST_F(MetaFsTest, CursorsSurviveMembershipEpochChange) {
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/big")).ok());
  std::set<std::string> expected;
  for (std::uint32_t i = 0; i < 60; ++i) {
    const std::string name = "e" + std::to_string(i);
    ASSERT_TRUE(WriteFile({i % 4, 0}, "/big/" + name, Bytes::Copy("x")).ok());
    expected.insert(name);
  }

  // Consume part of the listing, then change the ring under the cursor.
  std::vector<std::string> names;
  fs::DirCursor cursor;
  for (int page_no = 0; page_no < 4; ++page_no) {
    auto page = Await(*sim_, fs_->ReadDirPage({0, 0}, "/big", cursor, 5));
    ASSERT_TRUE(page.ok());
    for (const auto& info : page->entries) names.push_back(info.name);
    ASSERT_TRUE(page->more);
    cursor = page->next;
  }

  const std::uint32_t epoch = fs_->AddStorageServer(4);
  EXPECT_EQ(epoch, 1u);

  // The saved cursor continues exactly where it left off: shard assignment
  // depends only on the directory, never on the server ring.
  while (true) {
    auto page = Await(*sim_, fs_->ReadDirPage({0, 0}, "/big", cursor, 5));
    ASSERT_TRUE(page.ok());
    for (const auto& info : page->entries) names.push_back(info.name);
    if (!page->more) break;
    cursor = page->next;
  }
  EXPECT_EQ(names.size(), expected.size());
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()), expected);
}

TEST_F(MetaFsTest, BulkLoadedBigDirectoryPagesWithoutMaterializing) {
  constexpr std::uint64_t kEntries = 20000;
  fs::MemFsConfig config;
  config.metadata = MetadataMode::kSharded;
  config.meta.dir_shards = 16;
  Recreate(config);
  fs_->meta_client()->BulkLoadDirectory("/big", "f", kEntries);

  std::vector<std::size_t> pages;
  auto names = PagedNames("/big", 512, &pages);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), kEntries);
  for (std::size_t size : pages) EXPECT_LE(size, 512u);

  // Point operations on bulk-loaded entries behave like created ones.
  auto info = Await(*sim_, fs_->Stat({1, 0}, "/big/f12345"));
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->sealed);
  ASSERT_TRUE(Await(*sim_, fs_->Unlink({2, 0}, "/big/f12345")).ok());
  EXPECT_EQ(Await(*sim_, fs_->Stat({1, 0}, "/big/f12345")).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(MetaFsTest, RenameMovesDentryNotData) {
  const Bytes data = Bytes::Synthetic(MiB(1) + 7, 11);
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/a")).ok());
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/b")).ok());
  ASSERT_TRUE(WriteFile({0, 0}, "/a/x", data).ok());

  ASSERT_TRUE(Await(*sim_, fs_->Rename({1, 0}, "/a/x", "/b/y")).ok());
  EXPECT_EQ(Await(*sim_, fs_->Stat({2, 0}, "/a/x")).status().code(),
            ErrorCode::kNotFound);

  // The data never moved: stripes are keyed by ino, and the read path finds
  // them under the new name.
  auto back = ReadFile({3, 0}, "/b/y");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(data));
  EXPECT_EQ(fs_->meta_client()->stats().renames, 1u);
}

TEST_F(MetaFsTest, RenameDirectoryIsConstantCostDentryMove) {
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/d1")).ok());
  ASSERT_TRUE(WriteFile({0, 0}, "/d1/f", Bytes::Copy("inside")).ok());

  ASSERT_TRUE(Await(*sim_, fs_->Rename({1, 0}, "/d1", "/d2")).ok());
  // Children follow for free — their dentries key on the directory's ino,
  // which did not change.
  auto back = ReadFile({2, 0}, "/d2/f");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(Bytes::Copy("inside")));
  EXPECT_EQ(Await(*sim_, fs_->Stat({2, 0}, "/d1")).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(MetaFsTest, RenameRejectsBadArguments) {
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/a")).ok());
  ASSERT_TRUE(WriteFile({0, 0}, "/a/x", Bytes::Copy("1")).ok());
  ASSERT_TRUE(WriteFile({0, 0}, "/a/y", Bytes::Copy("2")).ok());

  EXPECT_EQ(Await(*sim_, fs_->Rename({0, 0}, "/a/x", "/a/y")).code(),
            ErrorCode::kExists);
  EXPECT_EQ(Await(*sim_, fs_->Rename({0, 0}, "/a", "/a/inside")).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(Await(*sim_, fs_->Rename({0, 0}, "/missing", "/a/z")).code(),
            ErrorCode::kNotFound);
}

TEST_F(MetaFsTest, HardLinksShareTheInode) {
  const Bytes data = Bytes::Synthetic(KiB(700), 21);
  ASSERT_TRUE(WriteFile({0, 0}, "/orig", data).ok());
  ASSERT_TRUE(Await(*sim_, fs_->Link({1, 0}, "/orig", "/alias")).ok());

  auto orig = Await(*sim_, fs_->Stat({2, 0}, "/orig"));
  auto alias = Await(*sim_, fs_->Stat({2, 0}, "/alias"));
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(orig->size, alias->size);

  // Dropping one name keeps the data alive through the other.
  const auto used_linked = storage_->total_memory_used();
  ASSERT_TRUE(Await(*sim_, fs_->Unlink({0, 0}, "/orig")).ok());
  EXPECT_GE(storage_->total_memory_used() + KiB(8), used_linked);
  auto back = ReadFile({3, 0}, "/alias");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(data));

  // Dropping the last name reclaims the stripes.
  ASSERT_TRUE(Await(*sim_, fs_->Unlink({0, 0}, "/alias")).ok());
  EXPECT_LT(storage_->total_memory_used(), used_linked - data.size() + KiB(8));
  EXPECT_EQ(fs_->meta_client()->stats().links, 1u);
}

TEST_F(MetaFsTest, AppendLogModeRejectsRenameAndLink) {
  Recreate({});  // default config: metadata = append_log
  ASSERT_TRUE(WriteFile({0, 0}, "/f", Bytes::Copy("1")).ok());
  EXPECT_EQ(Await(*sim_, fs_->Rename({0, 0}, "/f", "/g")).code(),
            ErrorCode::kPermission);
  EXPECT_EQ(Await(*sim_, fs_->Link({0, 0}, "/f", "/g")).code(),
            ErrorCode::kPermission);
  EXPECT_EQ(fs_->meta_client(), nullptr);
}

sim::Task CreateAndClose(fs::Vfs& vfs, net::NodeId node, std::string path,
                         std::uint8_t& ok) {
  auto created = co_await vfs.Create({node, 0}, std::move(path));
  if (!created.ok()) co_return;
  ok = (co_await vfs.Close({node, 0}, created.value())).ok();
}

// The first creates in a fresh directory race to install each shard's index
// blob, through the one append-or-create path at every chain length. Every
// create must succeed and every replica's copy of a blob must fold to
// exactly the names of its token range.
TEST_F(MetaFsTest, SimultaneousFirstCreatesConvergeOnEveryIndexReplica) {
  for (const std::uint32_t replication : {1u, 2u}) {
    SCOPED_TRACE("replication " + std::to_string(replication));
    fs::MemFsConfig config;
    config.metadata = MetadataMode::kSharded;
    config.replication = replication;
    Recreate(config);
    ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/hot")).ok());

    constexpr std::uint32_t kFiles = 32;
    std::vector<std::uint8_t> created(kFiles, 0);
    std::set<std::string> names;
    for (std::uint32_t i = 0; i < kFiles; ++i) {
      names.insert("f" + std::to_string(i));
      CreateAndClose(*fs_, i % kServers, "/hot/f" + std::to_string(i),
                     created[i]);
    }
    sim_->Run();
    for (std::uint32_t i = 0; i < kFiles; ++i) {
      EXPECT_TRUE(created[i]) << "create " << i;
    }

    auto dir = Await(*sim_, fs_->meta_client()->Resolve(0, "/hot", {}));
    ASSERT_TRUE(dir.ok());
    const std::uint32_t shards = fs_->meta_client()->config().dir_shards;
    for (std::uint32_t shard = 0; shard < shards; ++shard) {
      std::vector<std::string> expected;
      for (const auto& name : names) {
        if (ShardOfName(dir->ino, name, shards) == shard) {
          expected.push_back(name);
        }
      }
      EXPECT_EQ(CopiesFoldingTo(IndexKey(dir->ino, shard), expected),
                expected.empty() ? 0u : replication)
          << "shard " << shard;
    }
  }
}

// A replica that was down when a range's index blob was created lacks it.
// The next create in that range must seed it from its peer: failing the
// create, or installing a blob that holds only the new name, would leave
// the replicas disagreeing.
TEST_F(MetaFsTest, ReplicaThatMissedAnIndexBlobIsSeededFromItsPeer) {
  fs::MemFsConfig config;
  config.metadata = MetadataMode::kSharded;
  config.replication = 2;
  Recreate(config);
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/d")).ok());
  auto dir = Await(*sim_, fs_->meta_client()->Resolve(0, "/d", {}));
  ASSERT_TRUE(dir.ok());
  const std::uint32_t shards = fs_->meta_client()->config().dir_shards;
  const std::uint32_t shard = ShardOfName(dir->ino, "a", shards);
  std::string second = "b";
  while (ShardOfName(dir->ino, second, shards) != shard) second += "b";
  const std::string key = IndexKey(dir->ino, shard);
  const std::uint32_t home = fs_->distributor().ServerFor(key);
  const std::uint32_t lagging = (home + 1) % kServers;

  storage_->SetServerDown(lagging, true);
  ASSERT_TRUE(WriteFile({0, 0}, "/d/a", Bytes::Copy("1")).ok());
  storage_->SetServerDown(lagging, false);
  ASSERT_TRUE(WriteFile({1, 0}, "/d/" + second, Bytes::Copy("2")).ok());

  EXPECT_EQ(CopiesFoldingTo(key, {"a", second}), 2u);
}

// --- Cross-FS agreement (the AMFS readdir fix) ---------------------------

// Both file systems must return the identical sorted listing for the same
// namespace, whether drained through ReadDir or through paged cursors.
TEST(CrossFsListingTest, AmfsAndShardedMemFsAgree) {
  const std::vector<std::string> kNames = {"zeta", "alpha", "m1", "m10", "m2",
                                           "beta"};

  auto drive = [&](fs::Vfs& vfs, sim::Simulation& sim) {
    ASSERT_TRUE(Await(sim, vfs.Mkdir({0, 0}, "/dir")).ok());
    for (const auto& name : kNames) {
      auto created = Await(sim, vfs.Create({0, 0}, "/dir/" + name));
      ASSERT_TRUE(created.ok());
      ASSERT_TRUE(
          Await(sim, vfs.Write({0, 0}, created.value(), Bytes::Copy("x")))
              .ok());
      ASSERT_TRUE(Await(sim, vfs.Close({0, 0}, created.value())).ok());
    }
  };
  auto full_names = [&](fs::Vfs& vfs, sim::Simulation& sim) {
    auto listing = Await(sim, vfs.ReadDir({1, 0}, "/dir"));
    std::vector<std::string> names;
    if (listing.ok()) {
      for (const auto& info : *listing) names.push_back(info.name);
    }
    return names;
  };
  auto paged_names = [&](fs::Vfs& vfs, sim::Simulation& sim) {
    std::vector<std::string> names;
    fs::DirCursor cursor;
    while (true) {
      auto page = Await(sim, vfs.ReadDirPage({1, 0}, "/dir", cursor, 2));
      if (!page.ok()) break;
      EXPECT_LE(page->entries.size(), 2u);
      for (const auto& info : page->entries) names.push_back(info.name);
      if (!page->more) break;
      cursor = page->next;
    }
    return names;
  };

  // MemFS, sharded metadata.
  workloads::TestbedConfig mem_config = BedConfig(4);
  mem_config.memfs.metadata = MetadataMode::kSharded;
  workloads::Testbed mem_bed(workloads::FsKind::kMemFs, mem_config);
  sim::Simulation& mem_sim = mem_bed.simulation();
  fs::MemFs& memfs = *mem_bed.memfs();
  drive(memfs, mem_sim);

  // MemFS, the paper's append-log metadata.
  workloads::Testbed log_bed(workloads::FsKind::kMemFs, BedConfig(4));
  sim::Simulation& log_sim = log_bed.simulation();
  fs::MemFs& log_memfs = *log_bed.memfs();
  drive(log_memfs, log_sim);

  // AMFS.
  workloads::Testbed amfs_bed(workloads::FsKind::kAmfs, BedConfig(4));
  sim::Simulation& amfs_sim = amfs_bed.simulation();
  amfs::Amfs& amfs = *amfs_bed.amfs();
  drive(amfs, amfs_sim);

  std::vector<std::string> sorted = kNames;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(full_names(memfs, mem_sim), sorted);
  EXPECT_EQ(full_names(log_memfs, log_sim), sorted);
  EXPECT_EQ(full_names(amfs, amfs_sim), sorted);
  // Paged cursors visit MemFS token-range shards in shard-major order; the
  // union still covers exactly the sorted set. Append-log and AMFS pages are
  // sorted as-is.
  std::vector<std::string> memfs_paged = paged_names(memfs, mem_sim);
  std::sort(memfs_paged.begin(), memfs_paged.end());
  EXPECT_EQ(memfs_paged, sorted);
  EXPECT_EQ(paged_names(log_memfs, log_sim), sorted);
  EXPECT_EQ(paged_names(amfs, amfs_sim), sorted);
}

TEST(CrossFsListingTest, AmfsRenameMovesFilesOnly) {
  workloads::Testbed bed(workloads::FsKind::kAmfs, BedConfig(4));
  sim::Simulation& sim = bed.simulation();
  amfs::Amfs& amfs = *bed.amfs();

  ASSERT_TRUE(Await(sim, amfs.Mkdir({0, 0}, "/a")).ok());
  ASSERT_TRUE(Await(sim, amfs.Mkdir({0, 0}, "/b")).ok());
  auto created = Await(sim, amfs.Create({0, 0}, "/a/x"));
  ASSERT_TRUE(created.ok());
  const Bytes data = Bytes::Copy("payload");
  ASSERT_TRUE(Await(sim, amfs.Write({0, 0}, created.value(), data)).ok());
  ASSERT_TRUE(Await(sim, amfs.Close({0, 0}, created.value())).ok());

  ASSERT_TRUE(Await(sim, amfs.Rename({1, 0}, "/a/x", "/b/y")).ok());
  EXPECT_EQ(Await(sim, amfs.Stat({2, 0}, "/a/x")).status().code(),
            ErrorCode::kNotFound);
  auto opened = Await(sim, amfs.Open({2, 0}, "/b/y"));
  ASSERT_TRUE(opened.ok());
  auto back = Await(sim, amfs.Read({2, 0}, opened.value(), 0, KiB(1)));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(data));

  // Path-keyed design: directory renames and hard links are refused.
  EXPECT_EQ(Await(sim, amfs.Rename({0, 0}, "/a", "/c")).code(),
            ErrorCode::kPermission);
  EXPECT_EQ(Await(sim, amfs.Link({0, 0}, "/b/y", "/b/z")).code(),
            ErrorCode::kPermission);
}

// --- Both metadata modes, one error table --------------------------------

template <typename T>
ErrorCode CodeOf(const Result<T>& result) {
  return result.status().code();
}
ErrorCode CodeOf(const Status& status) { return status.code(); }

// Every namespace error case runs on both metadata modes, and each row's op
// must fail with the same code in either. The namespace: directory /dir
// holding a sealed file, a sealed file /file, an unsealed file /open and an
// empty directory /down. The last rows take down the one server (replication
// 1) holding /down's record — its path-keyed record under append_log, its
// dentry under sharded metadata — and expect a retryable code, not "no such
// directory".
TEST(CrossModeNamespaceTest, ErrorCodesAgreePerRow) {
  using Op = std::function<ErrorCode(workloads::Testbed&)>;
  struct Row {
    std::string what;
    Op op;
    ErrorCode want;  // kUnavailable: any retryable code
  };
  auto vfs_op = [](auto call) {
    return [call](workloads::Testbed& bed) {
      return CodeOf(Await(bed.simulation(), call(*bed.memfs())));
    };
  };
  auto with_parent_down = [](auto call) {
    return [call](workloads::Testbed& bed) {
      fs::MemFs& memfs = *bed.memfs();
      const std::uint32_t home = memfs.distributor().ServerFor(
          memfs.meta_client() != nullptr ? DentryKey(kRootIno, "down")
                                         : std::string("/down"));
      // A child whose own record lives elsewhere, so only the parent's
      // server is down.
      std::string child = "/down/f";
      while (memfs.distributor().ServerFor(child) == home) child += "f";
      bed.storage()->SetServerDown(home, true);
      const ErrorCode code =
          CodeOf(Await(bed.simulation(), call(memfs, child)));
      bed.storage()->SetServerDown(home, false);
      return code;
    };
  };
  const fs::VfsContext ctx{0, 0};
  const std::vector<Row> rows = {
      {"open a directory",
       vfs_op([&](fs::MemFs& fs) { return fs.Open(ctx, "/dir"); }),
       ErrorCode::kIsDirectory},
      {"open an unsealed file",
       vfs_op([&](fs::MemFs& fs) { return fs.Open(ctx, "/open"); }),
       ErrorCode::kPermission},
      {"stat a missing path",
       vfs_op([&](fs::MemFs& fs) { return fs.Stat(ctx, "/missing"); }),
       ErrorCode::kNotFound},
      {"open a missing path",
       vfs_op([&](fs::MemFs& fs) { return fs.Open(ctx, "/missing"); }),
       ErrorCode::kNotFound},
      {"readdir a file",
       vfs_op([&](fs::MemFs& fs) { return fs.ReadDir(ctx, "/file"); }),
       ErrorCode::kNotDirectory},
      {"readdir_page a file",
       vfs_op([&](fs::MemFs& fs) {
         return fs.ReadDirPage(ctx, "/file", {}, 0);
       }),
       ErrorCode::kNotDirectory},
      {"rmdir a non-empty directory",
       vfs_op([&](fs::MemFs& fs) { return fs.Rmdir(ctx, "/dir"); }),
       ErrorCode::kNotEmpty},
      {"unlink a directory",
       vfs_op([&](fs::MemFs& fs) { return fs.Unlink(ctx, "/dir"); }),
       ErrorCode::kIsDirectory},
      {"create under a missing directory",
       vfs_op([&](fs::MemFs& fs) { return fs.Create(ctx, "/missing/f"); }),
       ErrorCode::kNotFound},
      {"mkdir an existing path",
       vfs_op([&](fs::MemFs& fs) { return fs.Mkdir(ctx, "/dir"); }),
       ErrorCode::kExists},
      {"create while the parent's server is down",
       with_parent_down([&](fs::MemFs& fs, const std::string& path) {
         return fs.Create(ctx, path);
       }),
       ErrorCode::kUnavailable},
      {"mkdir while the parent's server is down",
       with_parent_down([&](fs::MemFs& fs, const std::string& path) {
         return fs.Mkdir(ctx, path);
       }),
       ErrorCode::kUnavailable},
  };

  std::map<MetadataMode, std::vector<ErrorCode>> codes;
  for (const MetadataMode mode :
       {MetadataMode::kAppendLog, MetadataMode::kSharded}) {
    workloads::TestbedConfig config = BedConfig(4);
    config.memfs.metadata = mode;
    workloads::Testbed bed(workloads::FsKind::kMemFs, config);
    sim::Simulation& sim = bed.simulation();
    fs::MemFs& memfs = *bed.memfs();
    ASSERT_TRUE(Await(sim, memfs.Mkdir(ctx, "/dir")).ok());
    ASSERT_TRUE(Await(sim, memfs.Mkdir(ctx, "/down")).ok());
    ASSERT_TRUE(testing::WriteFile(sim, memfs, ctx, "/dir/a",
                                   Bytes::Copy("a"))
                    .ok());
    ASSERT_TRUE(
        testing::WriteFile(sim, memfs, ctx, "/file", Bytes::Copy("f")).ok());
    ASSERT_TRUE(Await(sim, memfs.Create(ctx, "/open")).ok());
    for (const Row& row : rows) codes[mode].push_back(row.op(bed));
  }

  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(rows[i].what);
    const ErrorCode append_log = codes[MetadataMode::kAppendLog][i];
    const ErrorCode sharded = codes[MetadataMode::kSharded][i];
    EXPECT_EQ(append_log, sharded)
        << ToString(append_log) << " vs " << ToString(sharded);
    if (rows[i].want == ErrorCode::kUnavailable) {
      EXPECT_TRUE(IsRetryable(append_log)) << ToString(append_log);
      EXPECT_TRUE(IsRetryable(sharded)) << ToString(sharded);
    } else {
      EXPECT_EQ(append_log, rows[i].want) << ToString(append_log);
      EXPECT_EQ(sharded, rows[i].want) << ToString(sharded);
    }
  }
}

// --- Chaos: shard crashes mid-cross-directory-rename ---------------------

sim::Task RunChaosRename(sim::Simulation& sim, fs::Vfs& vfs,
                         sim::SimTime start, std::uint32_t node,
                         std::string from, std::string to, std::uint8_t& ok) {
  co_await sim.Delay(start);
  ok = (co_await vfs.Rename({node, 0}, std::move(from), std::move(to))).ok();
}

TEST(MetaChaosTest, CrossDirRenameSurvivesShardCrash) {
  constexpr std::uint32_t kNodes = 6;
  constexpr std::uint32_t kFiles = 12;

  workloads::TestbedConfig config = BedConfig(kNodes);
  config.memfs.metadata = MetadataMode::kSharded;
  config.memfs.replication = 3;
  config.kv_policy.retry.max_attempts = 4;
  config.kv_policy.op_deadline = Millis(20);
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);
  sim::Simulation& sim = bed.simulation();
  fs::MemFs& memfs = *bed.memfs();
  kv::KvCluster& storage = *bed.storage();

  // Build the namespace on a healthy cluster.
  ASSERT_TRUE(Await(sim, memfs.Mkdir({0, 0}, "/src")).ok());
  ASSERT_TRUE(Await(sim, memfs.Mkdir({0, 0}, "/dst")).ok());
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    auto created =
        Await(sim, memfs.Create({i % kNodes, 0}, "/src/f" + std::to_string(i)));
    ASSERT_TRUE(created.ok()) << static_cast<int>(created.status().code())
                              << " " << created.status().message();
    ASSERT_TRUE(Await(sim, memfs.Write({i % kNodes, 0}, created.value(),
                                       Bytes::Synthetic(KiB(64), 100 + i)))
                    .ok());
    ASSERT_TRUE(Await(sim, memfs.Close({i % kNodes, 0}, created.value())).ok());
  }

  // Crash three consecutive servers across the rename window — replica
  // chains are consecutive on the ring, so some keys lose their whole chain
  // and renames die mid-protocol, leaving intents behind. The servers come
  // back with RAM intact (process restart), and recovery rolls forward.
  sim::FaultInjector injector(sim, bed.fault_hooks());
  // The namespace build above already advanced the clock; fault windows are
  // scheduled relative to now so they overlap the rename traffic below.
  const sim::SimTime t0 = sim.now();
  std::vector<sim::FaultEvent> faults;
  for (std::uint32_t victim : {1u, 2u, 3u}) {
    sim::FaultEvent crash;
    crash.kind = sim::FaultKind::kServerCrash;
    crash.server = victim;
    crash.start = t0 + Millis(2);
    crash.duration = Millis(30);
    faults.push_back(crash);
  }
  injector.ScheduleAll(faults);

  // Cross-directory renames staggered straight through the crash windows.
  std::vector<std::uint8_t> rename_ok(kFiles, 0);
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    RunChaosRename(sim, memfs, Millis(2) * i, i % kNodes,
                   "/src/f" + std::to_string(i), "/dst/g" + std::to_string(i),
                   rename_ok[i]);
  }
  sim.Run();

  // Heal: roll every surviving intent forward until none are pending.
  Client* client = memfs.meta_client();
  ASSERT_NE(client, nullptr);
  for (int round = 0; round < 10 && client->pending_intents() > 0; ++round) {
    auto recovered = Await(sim, client->RecoverPending(0, {}));
    ASSERT_TRUE(recovered.ok());
  }
  EXPECT_EQ(client->pending_intents(), 0u);

  // Invariant scan over the union of all replicas: every dentry points at a
  // live inode (no dangling dentries) and every inode is reachable from a
  // dentry (no orphans).
  std::map<std::string, Bytes> merged;
  for (std::uint32_t s = 0; s < storage.server_count(); ++s) {
    kv::KvServer& server = storage.server(s);
    for (const auto& key : server.Keys()) {
      auto value = server.Get(key);
      ASSERT_TRUE(value.ok());
      merged.emplace(key, std::move(value.value()));
    }
  }
  std::set<Ino> inodes;
  std::set<Ino> referenced{kRootIno};
  for (const auto& [key, value] : merged) {
    if (key.rfind("i/", 0) == 0) {
      inodes.insert(std::stoull(key.substr(2)));
    } else if (key.rfind("d/", 0) == 0) {
      auto dentry = DecodeDentry(value);
      ASSERT_TRUE(dentry.ok()) << key;
      EXPECT_TRUE(merged.contains(InodeKey(dentry->ino)))
          << "dangling dentry " << key << " -> ino " << dentry->ino;
      referenced.insert(dentry->ino);
    }
  }
  for (const Ino ino : inodes) {
    EXPECT_TRUE(referenced.contains(ino)) << "orphaned inode " << ino;
  }
  EXPECT_FALSE(merged.contains(IntentKey(0)));
  for (const auto& [key, value] : merged) {
    EXPECT_NE(key.rfind("r/", 0), 0u) << "leftover intent " << key;
  }

  // Exactly one name per file survives, and an acknowledged or recovered
  // rename means the destination name.
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    const bool src_ok =
        Await(sim, memfs.Stat({0, 0}, "/src/f" + std::to_string(i))).ok();
    const bool dst_ok =
        Await(sim, memfs.Stat({0, 0}, "/dst/g" + std::to_string(i))).ok();
    EXPECT_NE(src_ok, dst_ok) << "file " << i;
    if (rename_ok[i]) {
      EXPECT_TRUE(dst_ok) << "file " << i;
    }
    // The data reads back intact under whichever name survived.
    const std::string path = dst_ok ? "/dst/g" + std::to_string(i)
                                    : "/src/f" + std::to_string(i);
    auto opened = Await(sim, memfs.Open({1, 0}, path));
    ASSERT_TRUE(opened.ok()) << path;
    auto back = Await(sim, memfs.Read({1, 0}, opened.value(), 0, KiB(64)));
    ASSERT_TRUE(back.ok()) << path;
    EXPECT_TRUE(back->ContentEquals(Bytes::Synthetic(KiB(64), 100 + i)));
    ASSERT_TRUE(Await(sim, memfs.Close({1, 0}, opened.value())).ok());
  }
  EXPECT_GT(injector.stats().crashes, 0u);
  // The crashes really interfered: with this deterministic schedule several
  // renames die mid-protocol and recovery does the roll-forward.
  EXPECT_GT(std::count(rename_ok.begin(), rename_ok.end(), 0), 0);
}

}  // namespace
}  // namespace memfs::meta

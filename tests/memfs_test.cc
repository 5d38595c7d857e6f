// MemFS client tests: striping arithmetic, write/read round trips over the
// simulated cluster, write-once enforcement, buffering and prefetching
// behaviour, namespace operations, and stripe balance.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "common/units.h"
#include "kvstore/kv_cluster.h"
#include "memfs/memfs.h"
#include "memfs/striper.h"
#include "test_util.h"
#include "testbed_fixture.h"

namespace memfs::fs {
namespace {

using memfs::testing::Await;
using units::KiB;
using units::MiB;

// --- Striper ---

TEST(StriperTest, StripeCount) {
  Striper striper(KiB(512));
  EXPECT_EQ(striper.StripeCount(0), 0u);
  EXPECT_EQ(striper.StripeCount(1), 1u);
  EXPECT_EQ(striper.StripeCount(KiB(512)), 1u);
  EXPECT_EQ(striper.StripeCount(KiB(512) + 1), 2u);
  EXPECT_EQ(striper.StripeCount(MiB(1)), 2u);
}

TEST(StriperTest, StripeLength) {
  Striper striper(KiB(512));
  EXPECT_EQ(striper.StripeLength(0, MiB(1)), KiB(512));
  EXPECT_EQ(striper.StripeLength(1, KiB(512) + 100), 100u);
  EXPECT_EQ(striper.StripeLength(5, KiB(512)), 0u);
}

TEST(StriperTest, SpansCoverRequestExactly) {
  Striper striper(1000);
  const auto spans = striper.Spans(2500, 1200, 10000);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].stripe, 2u);
  EXPECT_EQ(spans[0].offset_in_stripe, 500u);
  EXPECT_EQ(spans[0].length, 500u);
  EXPECT_EQ(spans[0].offset_in_request, 0u);
  EXPECT_EQ(spans[1].stripe, 3u);
  EXPECT_EQ(spans[1].offset_in_stripe, 0u);
  EXPECT_EQ(spans[1].length, 700u);
  EXPECT_EQ(spans[1].offset_in_request, 500u);
}

TEST(StriperTest, SpansClampAtEof) {
  Striper striper(1000);
  const auto spans = striper.Spans(9500, 5000, 10000);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].length, 500u);
  EXPECT_TRUE(striper.Spans(10000, 10, 10000).empty());
  EXPECT_TRUE(striper.Spans(0, 10, 0).empty());
}

TEST(StriperTest, SpansPropertySweep) {
  // Property: spans tile [offset, min(offset+length, size)) without gaps.
  Striper striper(512);
  const std::uint64_t file_size = 5000;
  for (std::uint64_t offset : {0ull, 1ull, 511ull, 512ull, 513ull, 4999ull}) {
    for (std::uint64_t length : {0ull, 1ull, 512ull, 1000ull, 6000ull}) {
      const auto spans = striper.Spans(offset, length, file_size);
      std::uint64_t pos = offset;
      std::uint64_t covered = 0;
      for (const auto& span : spans) {
        EXPECT_EQ(span.stripe, pos / 512);
        EXPECT_EQ(span.offset_in_stripe, pos % 512);
        EXPECT_EQ(span.offset_in_request, pos - offset);
        EXPECT_GT(span.length, 0u);
        pos += span.length;
        covered += span.length;
      }
      EXPECT_EQ(covered, std::min(offset + length, file_size) -
                             std::min(offset, file_size));
    }
  }
}

TEST(StriperTest, StripeKeyFormat) {
  EXPECT_EQ(Striper::StripeKey("/a/b.fits", 17), "/a/b.fits#17");
}

// --- MemFS over the simulated cluster ---

class MemFsTest : public testing::TestbedFixture {
 protected:
  static constexpr std::uint32_t kNodes = 4;

  MemFsTest() { Recreate({}); }

  void Recreate(MemFsConfig config) {
    workloads::TestbedConfig testbed;
    testbed.nodes = kNodes;
    testbed.memfs = config;
    Build(testbed);
  }
};

TEST_F(MemFsTest, SmallFileRoundTrip) {
  const Bytes data = Bytes::Pattern(100, 42);
  ASSERT_TRUE(WriteFile({0, 0}, "/hello", data, 100).ok());
  auto back = ReadFile({1, 0}, "/hello", 100);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(data));
  EXPECT_EQ(back->view(), data.view());
}

TEST_F(MemFsTest, EmptyFileRoundTrip) {
  ASSERT_TRUE(WriteFile({0, 0}, "/empty", Bytes(), 100).ok());
  auto back = ReadFile({2, 0}, "/empty", 100);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
  auto info = Await(*sim_, fs_->Stat({1, 0}, "/empty"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 0u);
  EXPECT_TRUE(info->sealed);
}

TEST_F(MemFsTest, MultiStripeFileRoundTrip) {
  // 3.5 stripes, read back in odd-sized blocks from another node.
  const std::uint64_t size = KiB(512) * 3 + KiB(256);
  const Bytes data = Bytes::Synthetic(size, 7);
  ASSERT_TRUE(WriteFile({0, 0}, "/big", data, KiB(300)).ok());
  auto back = ReadFile({3, 0}, "/big", KiB(123));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), size);
  EXPECT_TRUE(back->ContentEquals(data));
}

TEST_F(MemFsTest, StripesLandOnMultipleServers) {
  const std::uint64_t size = KiB(512) * 8;
  ASSERT_TRUE(
      WriteFile({0, 0}, "/spread", Bytes::Synthetic(size, 1), MiB(1)).ok());
  int servers_with_data = 0;
  for (std::uint32_t s = 0; s < kNodes; ++s) {
    if (storage_->server(s).memory_used() > 0) ++servers_with_data;
  }
  EXPECT_GE(servers_with_data, 3);
}

TEST_F(MemFsTest, StripeDistributionIsBalanced) {
  // Many files: per-server bytes should be close to uniform (the symmetric
  // distribution claim, Fig. 9's flat curve).
  for (int f = 0; f < 32; ++f) {
    ASSERT_TRUE(WriteFile({static_cast<net::NodeId>(f % kNodes), 0},
                          "/bal_" + std::to_string(f),
                          Bytes::Synthetic(MiB(2), f), MiB(2))
                    .ok());
  }
  RunningStats stats;
  for (std::uint32_t s = 0; s < kNodes; ++s) {
    stats.Add(static_cast<double>(storage_->server(s).memory_used()));
  }
  EXPECT_LT(stats.cv(), 0.15);
}

TEST_F(MemFsTest, RandomOffsetReads) {
  const std::uint64_t size = MiB(2);
  const Bytes data = Bytes::Synthetic(size, 99);
  ASSERT_TRUE(WriteFile({0, 0}, "/rand", data, MiB(2)).ok());
  auto opened = Await(*sim_, fs_->Open({1, 0}, "/rand"));
  ASSERT_TRUE(opened.ok());
  // POSIX-style reads at arbitrary offsets (reading is not restricted).
  for (std::uint64_t offset :
       {0ull, 1ull, 524287ull, 524288ull, 1048576ull, 2097151ull}) {
    auto chunk =
        Await(*sim_, fs_->Read({1, 0}, opened.value(), offset, 1000));
    ASSERT_TRUE(chunk.ok()) << offset;
    EXPECT_TRUE(chunk->ContentEquals(
        data.Slice(offset, std::min<std::uint64_t>(1000, size - offset))));
  }
  // Reads past EOF return empty.
  auto eof = Await(*sim_, fs_->Read({1, 0}, opened.value(), size + 10, 100));
  ASSERT_TRUE(eof.ok());
  EXPECT_TRUE(eof->empty());
  (void)Await(*sim_, fs_->Close({1, 0}, opened.value()));
}

TEST_F(MemFsTest, CreateExistingFails) {
  ASSERT_TRUE(WriteFile({0, 0}, "/dup", Bytes::Copy("x"), 10).ok());
  auto again = Await(*sim_, fs_->Create({1, 0}, "/dup"));
  EXPECT_EQ(again.status().code(), ErrorCode::kExists);
}

TEST_F(MemFsTest, WriteOnceEnforced) {
  // A sealed file cannot be re-created (write-once), and read handles reject
  // writes.
  ASSERT_TRUE(WriteFile({0, 0}, "/once", Bytes::Copy("data"), 10).ok());
  EXPECT_EQ(Await(*sim_, fs_->Create({0, 0}, "/once")).status().code(),
            ErrorCode::kExists);
  auto opened = Await(*sim_, fs_->Open({0, 0}, "/once"));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(
      Await(*sim_, fs_->Write({0, 0}, opened.value(), Bytes::Copy("x")))
          .code(),
      ErrorCode::kPermission);
  (void)Await(*sim_, fs_->Close({0, 0}, opened.value()));
}

TEST_F(MemFsTest, UnsealedFileNotReadable) {
  auto created = Await(*sim_, fs_->Create({0, 0}, "/wip"));
  ASSERT_TRUE(created.ok());
  // Another process cannot open it until close() seals it.
  EXPECT_EQ(Await(*sim_, fs_->Open({1, 0}, "/wip")).status().code(),
            ErrorCode::kPermission);
  (void)Await(*sim_, fs_->Write({0, 0}, created.value(), Bytes::Copy("x")));
  ASSERT_TRUE(Await(*sim_, fs_->Close({0, 0}, created.value())).ok());
  EXPECT_TRUE(Await(*sim_, fs_->Open({1, 0}, "/wip")).ok());
}

TEST_F(MemFsTest, ReadsOnWriteHandleRejected) {
  auto created = Await(*sim_, fs_->Create({0, 0}, "/w"));
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(Await(*sim_, fs_->Read({0, 0}, created.value(), 0, 10))
                .status()
                .code(),
            ErrorCode::kPermission);
  (void)Await(*sim_, fs_->Close({0, 0}, created.value()));
}

TEST_F(MemFsTest, BadHandleRejected) {
  EXPECT_EQ(Await(*sim_, fs_->Read({0, 0}, 999, 0, 10)).status().code(),
            ErrorCode::kBadHandle);
  EXPECT_EQ(Await(*sim_, fs_->Close({0, 0}, 999)).code(),
            ErrorCode::kBadHandle);
}

TEST_F(MemFsTest, OpenMissingFileFails) {
  EXPECT_EQ(Await(*sim_, fs_->Open({0, 0}, "/nothing")).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(MemFsTest, CreateInMissingDirectoryFails) {
  EXPECT_EQ(
      Await(*sim_, fs_->Create({0, 0}, "/no/such/dir/file")).status().code(),
      ErrorCode::kNotFound);
}

TEST_F(MemFsTest, MkdirReaddirUnlink) {
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/dir")).ok());
  ASSERT_TRUE(WriteFile({1, 0}, "/dir/a", Bytes::Copy("1"), 10).ok());
  ASSERT_TRUE(WriteFile({2, 0}, "/dir/b", Bytes::Copy("2"), 10).ok());

  auto listing = Await(*sim_, fs_->ReadDir({3, 0}, "/dir"));
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), 2u);
  EXPECT_EQ((*listing)[0].name, "a");
  EXPECT_EQ((*listing)[1].name, "b");

  ASSERT_TRUE(Await(*sim_, fs_->Unlink({0, 0}, "/dir/a")).ok());
  listing = Await(*sim_, fs_->ReadDir({3, 0}, "/dir"));
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), 1u);
  EXPECT_EQ((*listing)[0].name, "b");

  EXPECT_EQ(Await(*sim_, fs_->Open({0, 0}, "/dir/a")).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(MemFsTest, UnlinkReclaimsStripes) {
  const std::uint64_t size = MiB(2);
  ASSERT_TRUE(WriteFile({0, 0}, "/gone", Bytes::Synthetic(size, 3), MiB(1)).ok());
  const auto used_before = storage_->total_memory_used();
  EXPECT_GE(used_before, size);
  ASSERT_TRUE(Await(*sim_, fs_->Unlink({1, 0}, "/gone")).ok());
  EXPECT_LT(storage_->total_memory_used(), used_before - size + 1024);
}

TEST_F(MemFsTest, NestedDirectories) {
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/a")).ok());
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/a/b")).ok());
  ASSERT_TRUE(WriteFile({0, 0}, "/a/b/c", Bytes::Copy("deep"), 10).ok());
  auto info = Await(*sim_, fs_->Stat({1, 0}, "/a/b"));
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->is_directory);
  auto root = Await(*sim_, fs_->ReadDir({1, 0}, "/"));
  ASSERT_TRUE(root.ok());
  ASSERT_EQ(root->size(), 1u);
  EXPECT_EQ((*root)[0].name, "a");
}

TEST_F(MemFsTest, MkdirExistingFails) {
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/d")).ok());
  EXPECT_EQ(Await(*sim_, fs_->Mkdir({0, 0}, "/d")).code(),
            ErrorCode::kExists);
}

TEST_F(MemFsTest, StatFile) {
  ASSERT_TRUE(WriteFile({0, 0}, "/f", Bytes::Synthetic(12345, 1), 12345).ok());
  auto info = Await(*sim_, fs_->Stat({2, 0}, "/f"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "f");
  EXPECT_EQ(info->size, 12345u);
  EXPECT_FALSE(info->is_directory);
  EXPECT_TRUE(info->sealed);
}

TEST_F(MemFsTest, InvalidPathsRejected) {
  EXPECT_EQ(Await(*sim_, fs_->Create({0, 0}, "relative")).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(Await(*sim_, fs_->Create({0, 0}, "/")).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(Await(*sim_, fs_->Mkdir({0, 0}, "/a//b")).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(MemFsTest, RmdirRemovesEmptyDirectory) {
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/rd")).ok());
  ASSERT_TRUE(Await(*sim_, fs_->Rmdir({1, 0}, "/rd")).ok());
  EXPECT_EQ(Await(*sim_, fs_->Stat({0, 0}, "/rd")).status().code(),
            ErrorCode::kNotFound);
  auto root = Await(*sim_, fs_->ReadDir({2, 0}, "/"));
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->empty());
}

TEST_F(MemFsTest, RmdirRejectsNonEmptyAndNonDirectories) {
  ASSERT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/full")).ok());
  ASSERT_TRUE(WriteFile({0, 0}, "/full/f", Bytes::Copy("x"), 10).ok());
  EXPECT_EQ(Await(*sim_, fs_->Rmdir({0, 0}, "/full")).code(),
            ErrorCode::kNotEmpty);
  EXPECT_EQ(Await(*sim_, fs_->Rmdir({0, 0}, "/full/f")).code(),
            ErrorCode::kNotDirectory);
  EXPECT_EQ(Await(*sim_, fs_->Rmdir({0, 0}, "/")).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(Await(*sim_, fs_->Rmdir({0, 0}, "/ghost")).code(),
            ErrorCode::kNotFound);
  // After emptying it, removal succeeds and the name can be reused.
  ASSERT_TRUE(Await(*sim_, fs_->Unlink({0, 0}, "/full/f")).ok());
  ASSERT_TRUE(Await(*sim_, fs_->Rmdir({0, 0}, "/full")).ok());
  EXPECT_TRUE(Await(*sim_, fs_->Mkdir({0, 0}, "/full")).ok());
}

TEST_F(MemFsTest, SequentialReadUsesPrefetch) {
  MemFsConfig config;
  Recreate(config);
  const std::uint64_t size = KiB(512) * 12;
  ASSERT_TRUE(WriteFile({0, 0}, "/seq", Bytes::Synthetic(size, 5), MiB(1)).ok());
  auto back = ReadFile({1, 0}, "/seq", KiB(64));
  ASSERT_TRUE(back.ok());
  const auto& stats = fs_->stats();
  EXPECT_GT(stats.prefetch_issued, 0u);
  EXPECT_GT(stats.cache_hits, stats.cache_misses);
}

TEST_F(MemFsTest, NoPrefetchWhenDisabled) {
  MemFsConfig config;
  config.prefetch_depth = 0;
  Recreate(config);
  const std::uint64_t size = KiB(512) * 4;
  ASSERT_TRUE(WriteFile({0, 0}, "/nopf", Bytes::Synthetic(size, 5), MiB(1)).ok());
  auto back = ReadFile({1, 0}, "/nopf", KiB(512));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), size);
  EXPECT_EQ(fs_->stats().prefetch_issued, 0u);
}

TEST_F(MemFsTest, SynchronousWritesWhenNoIoThreads) {
  MemFsConfig config;
  config.io_threads = 0;
  Recreate(config);
  const std::uint64_t size = KiB(512) * 3;
  const Bytes data = Bytes::Synthetic(size, 8);
  ASSERT_TRUE(WriteFile({0, 0}, "/sync", data, KiB(512)).ok());
  auto back = ReadFile({1, 0}, "/sync", MiB(1));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(data));
}

TEST_F(MemFsTest, BufferingSpeedsUpWrites) {
  // The Fig. 3b claim: asynchronous buffered flushing beats synchronous
  // stripe shipping.
  const std::uint64_t size = MiB(8);
  MemFsConfig buffered;
  buffered.io_threads = 8;
  Recreate(buffered);
  auto t0 = sim_->now();
  ASSERT_TRUE(WriteFile({0, 0}, "/wbuf", Bytes::Synthetic(size, 2), KiB(512)).ok());
  const auto buffered_time = sim_->now() - t0;

  MemFsConfig sync;
  sync.io_threads = 0;
  Recreate(sync);
  t0 = sim_->now();
  ASSERT_TRUE(WriteFile({0, 0}, "/wsync", Bytes::Synthetic(size, 2), KiB(512)).ok());
  const auto sync_time = sim_->now() - t0;

  EXPECT_LT(buffered_time, sync_time);
}

TEST_F(MemFsTest, PrefetchSpeedsUpSequentialReads) {
  const std::uint64_t size = MiB(8);
  MemFsConfig with_prefetch;
  Recreate(with_prefetch);
  ASSERT_TRUE(WriteFile({0, 0}, "/pf", Bytes::Synthetic(size, 2), MiB(1)).ok());
  auto t0 = sim_->now();
  ASSERT_TRUE(ReadFile({1, 0}, "/pf", KiB(64)).ok());
  const auto prefetch_time = sim_->now() - t0;

  MemFsConfig without;
  without.prefetch_depth = 0;
  Recreate(without);
  ASSERT_TRUE(WriteFile({0, 0}, "/pf", Bytes::Synthetic(size, 2), MiB(1)).ok());
  t0 = sim_->now();
  ASSERT_TRUE(ReadFile({1, 0}, "/pf", KiB(64)).ok());
  const auto cold_time = sim_->now() - t0;

  EXPECT_LT(prefetch_time, cold_time);
}

TEST_F(MemFsTest, KetamaDistributionWorksEndToEnd) {
  MemFsConfig config;
  config.use_ketama = true;
  Recreate(config);
  const Bytes data = Bytes::Synthetic(MiB(3), 4);
  ASSERT_TRUE(WriteFile({0, 0}, "/ketama", data, MiB(1)).ok());
  auto back = ReadFile({2, 0}, "/ketama", MiB(1));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(data));
}

TEST_F(MemFsTest, StatsAccumulate) {
  ASSERT_TRUE(WriteFile({0, 0}, "/s1", Bytes::Synthetic(MiB(1), 1), MiB(1)).ok());
  ASSERT_TRUE(ReadFile({1, 0}, "/s1", MiB(1)).ok());
  const auto& stats = fs_->stats();
  EXPECT_EQ(stats.files_created, 1u);
  EXPECT_EQ(stats.files_opened, 1u);
  EXPECT_EQ(stats.bytes_written, MiB(1));
  EXPECT_EQ(stats.bytes_read, MiB(1));
  EXPECT_EQ(stats.stripe_sets, 2u);
  EXPECT_GE(stats.stripe_gets, 2u);
}

TEST_F(MemFsTest, ManyConcurrentWritersAndReaders) {
  // Stress: all nodes write distinct files concurrently, then everyone reads
  // everyone's file.
  std::vector<sim::Future<Result<FileHandle>>> creates;
  constexpr int kFiles = 12;
  std::vector<Bytes> contents;
  for (int f = 0; f < kFiles; ++f) {
    contents.push_back(Bytes::Synthetic(KiB(700) + f * 1000, f));
  }
  // Writers run truly concurrently through the event loop.
  std::vector<Status> results(kFiles, Status::Ok());
  for (int f = 0; f < kFiles; ++f) {
    const VfsContext ctx{static_cast<net::NodeId>(f % kNodes),
                         static_cast<std::uint32_t>(f / kNodes)};
    [](MemFs& fs, sim::Simulation&, VfsContext c, std::string path,
       Bytes data, Status& out) -> sim::Task {
      auto created = co_await fs.Create(c, path);
      if (!created.ok()) {
        out = created.status();
        co_return;
      }
      Status s = co_await fs.Write(c, created.value(), std::move(data));
      if (!s.ok()) {
        out = s;
        co_return;
      }
      out = co_await fs.Close(c, created.value());
    }(*fs_, *sim_, ctx, "/c" + std::to_string(f), contents[f], results[f]);
  }
  sim_->Run();
  for (const auto& r : results) EXPECT_TRUE(r.ok());

  for (int f = 0; f < kFiles; ++f) {
    auto back = ReadFile({static_cast<net::NodeId>((f + 1) % kNodes), 0},
                         "/c" + std::to_string(f), KiB(256));
    ASSERT_TRUE(back.ok()) << f;
    EXPECT_TRUE(back->ContentEquals(contents[f])) << f;
  }
}

}  // namespace
}  // namespace memfs::fs

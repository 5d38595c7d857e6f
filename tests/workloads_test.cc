// Tests for the workload layer: Testbed construction across all presets,
// its fault hooks, the envelope engine's accounting rules, staging/seeding
// interactions, and generator parameter edge cases.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/fault.h"
#include "test_util.h"
#include "testbed_fixture.h"
#include "workloads/blast.h"
#include "workloads/envelope.h"
#include "workloads/montage.h"
#include "workloads/testbed.h"

namespace memfs::workloads {
namespace {

using memfs::testing::BedConfig;
using units::KiB;
using units::MiB;

// --- Testbed presets ---

class TestbedMatrixTest
    : public ::testing::TestWithParam<std::tuple<FsKind, Fabric>> {};

TEST_P(TestbedMatrixTest, ConstructsAndRunsEnvelopeWrite) {
  const auto [kind, fabric] = GetParam();
  TestbedConfig config = BedConfig(4);
  config.fabric = fabric;
  Testbed bed(kind, config);
  EXPECT_EQ(bed.kind(), kind);
  EXPECT_EQ(&bed.vfs(), kind == FsKind::kAmfs
                            ? static_cast<fs::Vfs*>(bed.amfs())
                            : static_cast<fs::Vfs*>(bed.memfs()));

  EnvelopeParams params;
  params.nodes = 4;
  params.file_size = KiB(256);
  params.files_per_proc = 2;
  EnvelopeBench bench(bed.simulation(), bed.vfs(), params, bed.amfs());
  const auto write = bench.RunWrite();
  EXPECT_EQ(write.bytes, KiB(256) * 8);
  EXPECT_GT(write.BandwidthMBps(), 0.0);
  EXPECT_GT(bed.TotalMemoryUsed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, TestbedMatrixTest,
    ::testing::Combine(::testing::Values(FsKind::kMemFs, FsKind::kAmfs,
                                         FsKind::kDiskPfs),
                       ::testing::Values(Fabric::kDas4Ipoib, Fabric::kDas4GbE,
                                         Fabric::kEc2TenGbE, Fabric::kRdma)),
    [](const auto& info) {
      std::string name = std::string(ToString(std::get<0>(info.param))) +
                         "_" +
                         std::string(ToString(std::get<1>(info.param)));
      // gtest parameterized names must be alphanumeric.
      std::erase_if(name, [](char c) { return c == '-'; });
      return name;
    });

TEST(TestbedTest, NestedMetricsRegistrySurvivesConstruction) {
  // Regression: a registry wired into TestbedConfig::memfs.metrics used to
  // be silently clobbered by the (null) TestbedConfig::metrics override, so
  // callers got an empty registry back. The override must only fire when a
  // top-level registry is actually supplied.
  MetricsRegistry nested;
  TestbedConfig config = BedConfig(4);
  config.memfs.metrics = &nested;
  Testbed bed(FsKind::kMemFs, config);

  EnvelopeParams params;
  params.nodes = 4;
  params.file_size = KiB(64);
  params.files_per_proc = 1;
  EnvelopeBench bench(bed.simulation(), bed.vfs(), params, bed.amfs());
  bench.RunWrite();

  const auto vfs_write = nested.all().find("vfs.write");
  ASSERT_NE(vfs_write, nested.all().end());
  EXPECT_GT(vfs_write->second.count(), 0u);
  // The shared registry reaches the storage layer too (kv.* histograms).
  bool any_kv = false;
  for (const auto& [name, histogram] : nested.all()) {
    if (name.rfind("kv.", 0) == 0 && histogram.count() > 0) any_kv = true;
  }
  EXPECT_TRUE(any_kv);
}

TEST(TestbedTest, TopLevelMetricsOverrideStillWins) {
  // When both registries are supplied the top-level one takes precedence
  // (documented override semantics) and the nested one stays untouched.
  MetricsRegistry nested;
  MetricsRegistry top;
  TestbedConfig config = BedConfig(4);
  config.memfs.metrics = &nested;
  config.metrics = &top;
  Testbed bed(FsKind::kMemFs, config);

  EnvelopeParams params;
  params.nodes = 4;
  params.file_size = KiB(64);
  params.files_per_proc = 1;
  EnvelopeBench bench(bed.simulation(), bed.vfs(), params, bed.amfs());
  bench.RunWrite();

  const auto vfs_write = top.all().find("vfs.write");
  ASSERT_NE(vfs_write, top.all().end());
  EXPECT_GT(vfs_write->second.count(), 0u);
  EXPECT_EQ(nested.all().find("vfs.write"), nested.all().end());
}

TEST(TestbedTest, WaterfillModelSelectable) {
  TestbedConfig config = BedConfig(2);
  config.net_model = NetModel::kWaterfill;
  Testbed bed(FsKind::kMemFs, config);
  EXPECT_EQ(bed.network().config().nodes, 2u);
}

TEST(TestbedTest, StandbyNodesEnlargeFabricOnly) {
  Testbed bed(FsKind::kMemFs, BedConfig(4, 2));
  EXPECT_EQ(bed.network().config().nodes, 6u);
  EXPECT_EQ(bed.storage()->server_count(), 4u);
}

TEST(TestbedTest, DiskPfsIsSlowerThanMemFs) {
  auto run_write = [](FsKind kind) {
    Testbed bed(kind, BedConfig(4));
    EnvelopeParams params;
    params.nodes = 4;
    params.file_size = MiB(1);
    params.files_per_proc = 2;
    EnvelopeBench bench(bed.simulation(), bed.vfs(), params, nullptr);
    return bench.RunWrite().BandwidthMBps();
  };
  EXPECT_GT(run_write(FsKind::kMemFs), run_write(FsKind::kDiskPfs) * 4);
}

TEST(TestbedTest, RdmaIsFasterThanIpoib) {
  auto run_write = [](Fabric fabric) {
    TestbedConfig config = BedConfig(4);
    config.fabric = fabric;
    Testbed bed(FsKind::kMemFs, config);
    EnvelopeParams params;
    params.nodes = 4;
    params.file_size = MiB(4);
    params.files_per_proc = 2;
    EnvelopeBench bench(bed.simulation(), bed.vfs(), params, nullptr);
    return bench.RunWrite().BandwidthMBps();
  };
  EXPECT_GT(run_write(Fabric::kRdma), run_write(Fabric::kDas4Ipoib) * 2);
}

// --- Fault hooks ---

// One 2 ms episode of each fault class, all starting at 1 ms: server 3
// crashes and restarts empty, server 2 runs 8x slower, link 0->1 drops
// every message.
std::vector<sim::FaultEvent> OneFaultOfEachKind() {
  sim::FaultEvent crash;
  crash.kind = sim::FaultKind::kServerCrash;
  crash.start = units::Millis(1);
  crash.duration = units::Millis(2);
  crash.server = 3;
  crash.wipe_on_restart = true;
  sim::FaultEvent slow = crash;
  slow.kind = sim::FaultKind::kServerSlow;
  slow.server = 2;
  slow.slow_factor = 8.0;
  sim::FaultEvent link = crash;
  link.kind = sim::FaultKind::kLinkFault;
  link.src = 0;
  link.dst = 1;
  link.loss_prob = 1.0;
  return {crash, slow, link};
}

TEST(TestbedFaultHooksTest, FaultsReachStorageAndNetwork) {
  Testbed bed(FsKind::kMemFs, BedConfig(8));
  sim::Simulation& sim = bed.simulation();
  kv::KvCluster& storage = *bed.storage();
  ASSERT_TRUE(
      memfs::testing::Await(sim, storage.Set(0, 3, "k", Bytes::Copy("v")))
          .ok());

  sim::FaultInjector injector(sim, bed.fault_hooks());
  injector.ScheduleAll(OneFaultOfEachKind());
  bool down = false;
  double slowdown = 1.0;
  bool dropped = false;
  sim.ScheduleAt(units::Millis(2), [&] {
    down = storage.IsServerDown(3);
    slowdown = storage.ServerSlowdown(2);
    dropped = bed.network().DropMessage(0, 1);
  });
  sim.Run();

  EXPECT_TRUE(down);
  EXPECT_FALSE(storage.IsServerDown(3));
  EXPECT_EQ(storage.server(3).memory_used(), 0u);  // restarted empty
  EXPECT_EQ(slowdown, 8.0);
  EXPECT_EQ(storage.ServerSlowdown(2), 1.0);
  EXPECT_TRUE(dropped);
  EXPECT_EQ(bed.network().dropped_messages(), 1u);
  EXPECT_FALSE(bed.network().DropMessage(0, 1));  // link healed
}

TEST(TestbedFaultHooksTest, AmfsHooksAreUnsetAndFaultsAreNoOps) {
  Testbed bed(FsKind::kAmfs, BedConfig(4));
  const sim::FaultHooks hooks = bed.fault_hooks();
  EXPECT_FALSE(hooks.set_server_down);
  EXPECT_FALSE(hooks.set_server_slowdown);
  EXPECT_FALSE(hooks.set_link_fault);
  EXPECT_FALSE(hooks.clear_link_fault);

  sim::Simulation& sim = bed.simulation();
  sim::FaultInjector injector(sim, bed.fault_hooks());
  injector.ScheduleAll(OneFaultOfEachKind());
  bool dropped = true;
  sim.ScheduleAt(units::Millis(2),
                 [&] { dropped = bed.network().DropMessage(0, 1); });
  sim.Run();

  EXPECT_EQ(injector.stats().crashes, 1u);  // the schedule ran...
  EXPECT_FALSE(dropped);                    // ...but nothing was faulted
  EXPECT_EQ(bed.network().dropped_messages(), 0u);
}

// --- Envelope accounting rules ---

TEST(EnvelopeAccountingTest, PerFileJobOverheadSlowsDataPhasesOnly) {
  auto run = [](sim::SimTime overhead) {
    Testbed bed(FsKind::kMemFs, BedConfig(4));
    EnvelopeParams params;
    params.nodes = 4;
    params.file_size = KiB(64);
    params.files_per_proc = 4;
    params.per_file_job_overhead = overhead;
    EnvelopeBench bench(bed.simulation(), bed.vfs(), params, nullptr);
    const auto write = bench.RunWrite();
    const auto create = bench.RunCreate(16);
    return std::pair{write.BandwidthMBps(), create.OpsPerSec()};
  };
  const auto [bw_free, create_free] = run(0);
  const auto [bw_taxed, create_taxed] = run(units::Millis(1));
  EXPECT_GT(bw_free, bw_taxed * 2);              // data phases pay
  EXPECT_NEAR(create_free, create_taxed,
              create_free * 0.01);               // metadata phases do not
}

TEST(EnvelopeAccountingTest, OpsCountIoCalls) {
  Testbed bed(FsKind::kMemFs, BedConfig(2));
  EnvelopeParams params;
  params.nodes = 2;
  params.file_size = KiB(256);
  params.files_per_proc = 3;
  params.io_block = KiB(64);  // 4 calls per file
  EnvelopeBench bench(bed.simulation(), bed.vfs(), params, nullptr);
  const auto write = bench.RunWrite();
  EXPECT_EQ(write.ops, 2u * 3u * 4u);
  const auto read = bench.RunRead11();
  // Reads need one extra call to observe EOF when size % block == 0.
  EXPECT_EQ(read.ops, 2u * 3u * 4u);
}

TEST(EnvelopeAccountingTest, N1SpanIncludesMulticastOnlyForBandwidth) {
  Testbed bed(FsKind::kAmfs, BedConfig(4));
  EnvelopeParams params;
  params.nodes = 4;
  params.file_size = MiB(1);
  params.files_per_proc = 1;
  EnvelopeBench bench(bed.simulation(), bed.vfs(), params, bed.amfs());
  (void)bench.RunWrite();
  const auto n1 = bench.RunReadN1();
  EXPECT_GT(n1.span, n1.work_span);
  EXPECT_GT(n1.OpsPerSec(), 0.0);
  EXPECT_LT(n1.BandwidthMBps(), n1.WorkBandwidthMBps() + 1e9);
}

TEST(EnvelopeAccountingTest, FailedPhaseReportsItsStatus) {
  // Every kv server goes down after setup: the phase returns the error,
  // in Debug and Release builds alike.
  TestbedConfig config = BedConfig(4);
  Testbed bed(FsKind::kMemFs, config);
  EnvelopeParams params;
  params.nodes = 4;
  params.file_size = KiB(64);
  params.files_per_proc = 2;
  EnvelopeBench bench(bed.simulation(), bed.vfs(), params, nullptr);
  for (std::uint32_t server = 0; server < config.nodes; ++server) {
    bed.storage()->SetServerDown(server, true);
  }
  const auto write = bench.RunWrite();
  EXPECT_FALSE(write.status.ok());
}

TEST(EnvelopeAccountingTest, CorruptReadFailsThe11Phase) {
  // Reads are always verified: one 1-1 read that returns the wrong bytes
  // fails the phase, and the phase reports the mismatch as its status.
  Testbed bed(FsKind::kMemFs, BedConfig(2));
  const std::string file = "/env/d_n0_p0_f0";
  memfs::testing::CorruptReadVfs vfs(bed.simulation(), bed.vfs(), file);
  EnvelopeParams params;
  params.nodes = 2;
  params.file_size = KiB(64);
  params.files_per_proc = 2;
  EnvelopeBench bench(bed.simulation(), vfs, params, nullptr);
  ASSERT_TRUE(bench.RunWrite().status.ok());
  const auto read11 = bench.RunRead11();
  EXPECT_TRUE(vfs.corrupted());
  EXPECT_EQ(read11.status.code(), ErrorCode::kInternal);
  EXPECT_EQ(read11.status.message(), "envelope content mismatch: " + file);
  // The other reads went through: only the corrupt file's process stopped.
  EXPECT_GT(read11.ops, 0u);
}

TEST(EnvelopeAccountingTest, OpenBeforeCreateFailsThePhase) {
  // A Release build reports the misordered phase instead of opening nothing
  // and printing zero counts as a success.
  Testbed bed(FsKind::kMemFs, BedConfig(2));
  EnvelopeParams params;
  params.nodes = 2;
  EnvelopeBench bench(bed.simulation(), bed.vfs(), params, nullptr);
  const auto open = bench.RunOpen();
  EXPECT_EQ(open.status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(open.ops, 0u);
  // A create phase of no files still orders the open phase (no-metadata
  // cells of the paper table run both).
  EXPECT_TRUE(bench.RunCreate(0).status.ok());
  const auto empty = bench.RunOpen();
  EXPECT_TRUE(empty.status.ok()) << empty.status.ToString();
  EXPECT_EQ(empty.ops, 0u);
  EXPECT_TRUE(bench.RunCreate(2).status.ok());
  const auto reopened = bench.RunOpen();
  EXPECT_TRUE(reopened.status.ok()) << reopened.status.ToString();
  EXPECT_EQ(reopened.ops, 2u * 2u);
}

TEST(EnvelopeAccountingTest, ReadBeforeWriteFailsThePhase) {
  for (const FsKind kind : {FsKind::kMemFs, FsKind::kAmfs}) {
    Testbed bed(kind, BedConfig(2));
    EnvelopeParams params;
    params.nodes = 2;
    params.file_size = KiB(64);
    EnvelopeBench bench(bed.simulation(), bed.vfs(), params, bed.amfs());
    const auto read11 = bench.RunRead11();
    const auto readn1 = bench.RunReadN1();
    EXPECT_EQ(read11.status.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(readn1.status.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(read11.ops + readn1.ops, 0u);
    EXPECT_EQ(read11.bytes + readn1.bytes, 0u);
    EXPECT_TRUE(bench.RunWrite().status.ok());
    EXPECT_TRUE(bench.RunRead11().status.ok());
    EXPECT_TRUE(bench.RunReadN1().status.ok());
  }
}

// --- Envelope golden calls ---

// Records every call the envelope issues, per (node, process), and folds
// the whole interleaving, stamped with simulated time, into one hash. The
// caller gets the inner file system's future itself, so recording adds no
// event.
class RecordingVfs final : public fs::Vfs {
 public:
  RecordingVfs(sim::Simulation& sim, fs::Vfs& inner)
      : sim_(sim), inner_(inner) {}

  using Calls = std::map<std::pair<std::uint32_t, std::uint32_t>,
                         std::vector<std::string>>;

  // The calls since the last Take, and the hash of their interleaving.
  std::pair<Calls, std::uint64_t> Take() {
    std::pair<Calls, std::uint64_t> out{std::move(calls_), hash_};
    calls_.clear();
    hash_ = kFnvOffset;
    return out;
  }

  sim::Future<Result<fs::FileHandle>> Create(fs::VfsContext ctx,
                                             std::string path) override {
    Note(ctx, "create " + path);
    return inner_.Create(ctx, std::move(path));
  }
  sim::Future<Result<fs::FileHandle>> Open(fs::VfsContext ctx,
                                           std::string path) override {
    Note(ctx, "open " + path);
    return inner_.Open(ctx, std::move(path));
  }
  sim::Future<Status> Write(fs::VfsContext ctx, fs::FileHandle handle,
                            Bytes data) override {
    Note(ctx, "write " + std::to_string(data.size()));
    return inner_.Write(ctx, handle, std::move(data));
  }
  sim::Future<Result<Bytes>> Read(fs::VfsContext ctx, fs::FileHandle handle,
                                  std::uint64_t offset,
                                  std::uint64_t length) override {
    Note(ctx, "read " + std::to_string(offset) + " " + std::to_string(length));
    return inner_.Read(ctx, handle, offset, length);
  }
  sim::Future<Status> Flush(fs::VfsContext ctx,
                            fs::FileHandle handle) override {
    Note(ctx, "flush");
    return inner_.Flush(ctx, handle);
  }
  sim::Future<Status> Close(fs::VfsContext ctx,
                            fs::FileHandle handle) override {
    Note(ctx, "close");
    return inner_.Close(ctx, handle);
  }
  sim::Future<Status> Mkdir(fs::VfsContext ctx, std::string path) override {
    Note(ctx, "mkdir " + path);
    return inner_.Mkdir(ctx, std::move(path));
  }
  sim::Future<Result<std::vector<fs::FileInfo>>> ReadDir(
      fs::VfsContext ctx, std::string path) override {
    Note(ctx, "readdir " + path);
    return inner_.ReadDir(ctx, std::move(path));
  }
  sim::Future<Result<fs::DirPage>> ReadDirPage(fs::VfsContext ctx,
                                               std::string path,
                                               fs::DirCursor cursor,
                                               std::uint32_t limit) override {
    Note(ctx, "readdirpage " + path);
    return inner_.ReadDirPage(ctx, std::move(path), cursor, limit);
  }
  sim::Future<Result<fs::FileInfo>> Stat(fs::VfsContext ctx,
                                         std::string path) override {
    Note(ctx, "stat " + path);
    return inner_.Stat(ctx, std::move(path));
  }
  sim::Future<Status> Unlink(fs::VfsContext ctx, std::string path) override {
    Note(ctx, "unlink " + path);
    return inner_.Unlink(ctx, std::move(path));
  }
  sim::Future<Status> Rmdir(fs::VfsContext ctx, std::string path) override {
    Note(ctx, "rmdir " + path);
    return inner_.Rmdir(ctx, std::move(path));
  }
  sim::Future<Status> Rename(fs::VfsContext ctx, std::string from,
                             std::string to) override {
    Note(ctx, "rename " + from + " " + to);
    return inner_.Rename(ctx, std::move(from), std::move(to));
  }
  sim::Future<Status> Link(fs::VfsContext ctx, std::string existing,
                           std::string link) override {
    Note(ctx, "link " + existing + " " + link);
    return inner_.Link(ctx, std::move(existing), std::move(link));
  }

 private:
  static constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

  void Note(const fs::VfsContext& ctx, std::string call) {
    const std::string stamped = std::to_string(sim_.now()) + " n" +
                                std::to_string(ctx.node) + " p" +
                                std::to_string(ctx.process) + " " + call;
    for (const char c : stamped + "\n") {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    calls_[{ctx.node, ctx.process}].push_back(std::move(call));
  }

  sim::Simulation& sim_;
  fs::Vfs& inner_;
  Calls calls_;
  std::uint64_t hash_ = kFnvOffset;
};

// What one phase did, pinned from the implementation that built each
// process's name list before the phase ran.
struct GoldenPhase {
  std::uint64_t ops;
  std::uint64_t bytes;
  sim::SimTime span;
  sim::SimTime work_span;
  double sum_proc_mbps;
  double sum_proc_ops_per_sec;
  std::uint64_t interleaving;
};

constexpr std::uint32_t kGoldenNodes = 4;
constexpr std::uint32_t kGoldenProcs = 2;
constexpr std::uint32_t kGoldenFiles = 2;
constexpr std::uint32_t kGoldenMetaFiles = 3;

std::string GoldenName(char kind, std::uint32_t node, std::uint32_t proc,
                       std::uint32_t index) {
  return std::string("/env/") + kind + "_n" + std::to_string(node) + "_p" +
         std::to_string(proc) + "_f" + std::to_string(index);
}

// The calls one process issues for one file of 64 KiB in 32 KiB calls.
void ExpectWrite(std::vector<std::string>& out, const std::string& path) {
  out.insert(out.end(), {"create " + path, "write 32768", "write 32768",
                         "close"});
}
void ExpectRead(std::vector<std::string>& out, const std::string& path) {
  // The third read finds EOF (the file is a multiple of the call size).
  out.insert(out.end(), {"open " + path, "read 0 32768", "read 32768 32768",
                         "read 65536 32768", "close"});
}

// Per phase, the calls each (node, process) must issue, in order.
std::vector<RecordingVfs::Calls> ExpectedGoldenCalls() {
  std::vector<RecordingVfs::Calls> phases(5);
  for (std::uint32_t node = 0; node < kGoldenNodes; ++node) {
    for (std::uint32_t proc = 0; proc < kGoldenProcs; ++proc) {
      const std::pair key{node, proc};
      for (std::uint32_t f = 0; f < kGoldenFiles; ++f) {
        ExpectWrite(phases[0][key], GoldenName('d', node, proc, f));
        // The 1-1 read runs remote: each node reads its neighbour's files.
        ExpectRead(phases[1][key],
                   GoldenName('d', (node + 1) % kGoldenNodes, proc, f));
      }
      // Node 0's first process writes the shared N-1 file before the reads.
      if (key == std::pair{0u, 0u}) {
        ExpectWrite(phases[2][key], "/env/shared_n1");
      }
      ExpectRead(phases[2][key], "/env/shared_n1");
      for (std::uint32_t f = 0; f < kGoldenMetaFiles; ++f) {
        const std::string meta = GoldenName('m', node, proc, f);
        std::vector<std::string>& create = phases[3][key];
        std::vector<std::string>& open = phases[4][key];
        create.insert(create.end(), {"create " + meta, "close"});
        open.insert(open.end(), {"open " + meta, "close"});
      }
    }
  }
  return phases;
}

void RunEnvelopeGolden(FsKind kind, const std::vector<GoldenPhase>& golden) {
  Testbed bed(kind, BedConfig(kGoldenNodes));
  RecordingVfs recorder(bed.simulation(), bed.vfs());
  EnvelopeParams params;
  params.nodes = kGoldenNodes;
  params.procs_per_node = kGoldenProcs;
  params.file_size = KiB(64);
  params.files_per_proc = kGoldenFiles;
  params.io_block = KiB(32);
  EnvelopeBench bench(bed.simulation(), recorder, params, bed.amfs());
  const auto setup = recorder.Take().first;
  ASSERT_EQ(setup.size(), 1u);
  EXPECT_EQ(setup.begin()->second, std::vector<std::string>{"mkdir /env"});

  const char* names[] = {"write", "read11", "readn1", "create", "open"};
  const std::vector<RecordingVfs::Calls> expected = ExpectedGoldenCalls();
  ASSERT_EQ(golden.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(names[i]);
    PhaseResult result;
    switch (i) {
      case 0: result = bench.RunWrite(); break;
      case 1: result = bench.RunRead11(1); break;
      case 2: result = bench.RunReadN1(); break;
      case 3: result = bench.RunCreate(kGoldenMetaFiles); break;
      default: result = bench.RunOpen(); break;
    }
    const auto [calls, interleaving] = recorder.Take();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(calls, expected[i]);
    EXPECT_EQ(result.ops, golden[i].ops);
    EXPECT_EQ(result.bytes, golden[i].bytes);
    EXPECT_EQ(result.span, golden[i].span);
    EXPECT_EQ(result.work_span, golden[i].work_span);
    EXPECT_DOUBLE_EQ(result.sum_proc_mbps, golden[i].sum_proc_mbps);
    EXPECT_DOUBLE_EQ(result.sum_proc_ops_per_sec,
                     golden[i].sum_proc_ops_per_sec);
    EXPECT_EQ(interleaving, golden[i].interleaving);
  }
}

TEST(EnvelopeGoldenTest, MemFsPhasesIssueThePinnedCalls) {
  RunEnvelopeGolden(FsKind::kMemFs, {
      {32, 1048576, 1529603, 1529603, 971.98045665871973, 29662.489522055665,
       0xcafbe44f77c3ef3dull},
      {32, 1048576, 672082, 672082, 2040.9091223156045, 62283.60358629164,
       0x1e573a24b32a29cdull},
      {16, 524288, 680575, 680575, 1510.5761224964831, 46099.124832046,
       0xed5e9e2fa6ea14dcull},
      {24, 0, 1459272, 1459272, 0, 21904.323643185071, 0xc1437ca15d277ffeull},
      {24, 0, 396351, 396351, 0, 66459.273401267827, 0xa8fdbbd326f06713ull}});
}

TEST(EnvelopeGoldenTest, AmfsPhasesIssueThePinnedCalls) {
  RunEnvelopeGolden(FsKind::kAmfs, {
      {32, 1048576, 1296688, 1296688, 980.71297280150452, 29928.984765670917,
       0xcdc08ed6f7bf67efull},
      {32, 1048576, 1699904, 1699904, 617.38951268428673, 18841.232686898402,
       0x75662e9c7a692181ull},
      // The N-1 span includes the multicast; the work span does not.
      {16, 524288, 1245504, 153920, 421.4526338108264, 104983.26824857439,
       0xe4770909abe41d3eull},
      {24, 0, 1213600, 1213600, 0, 25183.872556574635, 0x25ae1d1ad434fda0ull},
      {24, 0, 117000, 117000, 0, 207827.26045883936, 0x45e57a69637f3a65ull}});
}

// --- Generator edge cases ---

TEST(GeneratorEdgeTest, MontageMinimumSize) {
  MontageParams params;
  params.degree = 6;
  params.task_scale = 100000;  // absurd divisor -> floor of 4 images
  const auto wf = BuildMontage(params);
  int images = 0;
  for (const auto& task : wf.tasks) {
    images += wf.StageName(task) == "stage_in" ? 1 : 0;
  }
  EXPECT_EQ(images, 4);
  std::vector<bool> produced(wf.files.size(), false);
  for (const auto& task : wf.tasks) {
    for (mtc::FileId output : wf.Outputs(task)) produced[output] = true;
  }
  for (const auto& task : wf.tasks) {
    for (mtc::FileId input : wf.Inputs(task)) {
      EXPECT_TRUE(produced[input]) << wf.Path(input);
    }
  }
}

TEST(GeneratorEdgeTest, MontageSizeScaleDividesBytes) {
  MontageParams coarse;
  coarse.task_scale = 64;
  MontageParams fine = coarse;
  fine.size_scale = 8;
  const auto full = BuildMontage(coarse).TotalOutputBytes();
  const auto scaled = BuildMontage(fine).TotalOutputBytes();
  EXPECT_NEAR(static_cast<double>(full) / static_cast<double>(scaled), 8.0,
              0.5);
}

TEST(GeneratorEdgeTest, BlastMinimumFragments) {
  BlastParams params;
  params.fragments = 512;
  params.task_scale = 100000;
  const auto wf = BuildBlast(params);
  int fragments = 0;
  for (const auto& task : wf.tasks) {
    fragments += wf.StageName(task) == "formatdb" ? 1 : 0;
  }
  EXPECT_EQ(fragments, 2);
}

TEST(GeneratorEdgeTest, BlastMergeCoversAllResults) {
  BlastParams params;
  params.fragments = 16;
  params.queries_per_fragment = 4;
  params.merges = 8;
  const auto wf = BuildBlast(params);
  int results_consumed = 0;
  int results_produced = 0;
  for (const auto& task : wf.tasks) {
    if (wf.StageName(task) == "merge") {
      results_consumed += static_cast<int>(wf.Inputs(task).size());
    }
    if (wf.StageName(task) == "blastall") ++results_produced;
  }
  EXPECT_EQ(results_consumed, results_produced);
}

TEST(GeneratorEdgeTest, WorkflowNamesAreUnique) {
  MontageParams params;
  params.task_scale = 64;
  const auto wf = BuildMontage(params);
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < wf.tasks.size(); ++i) {
    names.insert(wf.TaskName(i));
  }
  EXPECT_EQ(names.size(), wf.tasks.size());
}

}  // namespace
}  // namespace memfs::workloads

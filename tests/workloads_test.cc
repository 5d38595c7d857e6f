// Tests for the workload layer: Testbed construction across all presets,
// its fault hooks, the envelope engine's accounting rules, staging/seeding
// interactions, and generator parameter edge cases.
#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "sim/fault.h"
#include "test_util.h"
#include "workloads/blast.h"
#include "workloads/envelope.h"
#include "workloads/montage.h"
#include "workloads/testbed.h"

namespace memfs::workloads {
namespace {

using units::KiB;
using units::MiB;

// --- Testbed presets ---

class TestbedMatrixTest
    : public ::testing::TestWithParam<std::tuple<FsKind, Fabric>> {};

TEST_P(TestbedMatrixTest, ConstructsAndRunsEnvelopeWrite) {
  const auto [kind, fabric] = GetParam();
  TestbedConfig config;
  config.nodes = 4;
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
  TestbedConfig config;
  config.nodes = 4;
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
  TestbedConfig config;
  config.nodes = 4;
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
  TestbedConfig config;
  config.nodes = 2;
  config.net_model = NetModel::kWaterfill;
  Testbed bed(FsKind::kMemFs, config);
  EXPECT_EQ(bed.network().config().nodes, 2u);
}

TEST(TestbedTest, StandbyNodesEnlargeFabricOnly) {
  TestbedConfig config;
  config.nodes = 4;
  config.standby_nodes = 2;
  Testbed bed(FsKind::kMemFs, config);
  EXPECT_EQ(bed.network().config().nodes, 6u);
  EXPECT_EQ(bed.storage()->server_count(), 4u);
}

TEST(TestbedTest, DiskPfsIsSlowerThanMemFs) {
  auto run_write = [](FsKind kind) {
    TestbedConfig config;
    config.nodes = 4;
    Testbed bed(kind, config);
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
    TestbedConfig config;
    config.nodes = 4;
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
  TestbedConfig config;
  config.nodes = 8;
  Testbed bed(FsKind::kMemFs, config);
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
  TestbedConfig config;
  config.nodes = 4;
  Testbed bed(FsKind::kAmfs, config);
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
    TestbedConfig config;
    config.nodes = 4;
    Testbed bed(FsKind::kMemFs, config);
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
  TestbedConfig config;
  config.nodes = 2;
  Testbed bed(FsKind::kMemFs, config);
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
  TestbedConfig config;
  config.nodes = 4;
  Testbed bed(FsKind::kAmfs, config);
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
  TestbedConfig config;
  config.nodes = 4;
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

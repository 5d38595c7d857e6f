// End-to-end integration: full Montage/BLAST workflows executed through both
// file systems on a simulated cluster, plus the MTC-Envelope engine. These
// tests assert the paper's qualitative claims at small scale — every byte of
// every intermediate file is content-verified along the way.
#include <gtest/gtest.h>

#include "common/stats.h"
#include "common/units.h"
#include "mtc/runner.h"
#include "mtc/scheduler.h"
#include "testbed_fixture.h"
#include "workloads/blast.h"
#include "workloads/envelope.h"
#include "workloads/montage.h"

namespace memfs {
namespace {

using units::GiB;
using units::KiB;
using units::MiB;

using memfs::testing::BedConfig;
using workloads::FsKind;
using workloads::Testbed;

workloads::MontageParams SmallMontage() {
  workloads::MontageParams params;
  params.degree = 6;
  params.task_scale = 64;   // ~38 images
  params.size_scale = 16;   // ~128-256 KB files
  params.project_cpu_s = 1.0;
  return params;
}

TEST(IntegrationTest, MontageRunsOnMemFs) {
  Testbed stack(FsKind::kMemFs, BedConfig(4));
  mtc::UniformScheduler scheduler;
  mtc::Runner runner(stack.simulation(), *stack.memfs(), scheduler,
                     {.nodes = 4, .cores_per_node = 4, .io_block = KiB(128)});
  const auto result = runner.Run(workloads::BuildMontage(SmallMontage()));
  ASSERT_TRUE(result.status.ok()) << result.status << " in "
                                  << result.failed_task;
  EXPECT_GT(result.MakespanSeconds(), 0.0);
  EXPECT_GT(result.bytes_written, 0u);
  // All paper stages appear in the run.
  for (const char* stage : {"stage_in", "mProjectPP", "mImgTbl", "mDiffFit",
                            "mConcatFit", "mBgModel", "mBackground", "mAdd"}) {
    EXPECT_NE(result.Stage(stage), nullptr) << stage;
  }
}

TEST(IntegrationTest, MontageRunsOnAmfs) {
  Testbed stack(FsKind::kAmfs, BedConfig(4));
  mtc::LocalityScheduler scheduler(*stack.amfs());
  mtc::Runner runner(stack.simulation(), *stack.amfs(), scheduler,
                     {.nodes = 4, .cores_per_node = 4, .io_block = KiB(128)});
  const auto result = runner.Run(workloads::BuildMontage(SmallMontage()));
  ASSERT_TRUE(result.status.ok()) << result.status << " in "
                                  << result.failed_task;
}

TEST(IntegrationTest, MemFsBalancedAmfsImbalanced) {
  // The central storage-distribution claim: MemFS spreads bytes evenly;
  // AMFS concentrates them (aggregation node + replication).
  Testbed mem(FsKind::kMemFs, BedConfig(4));
  {
    mtc::UniformScheduler scheduler;
    mtc::Runner runner(mem.simulation(), *mem.memfs(), scheduler,
                       {.nodes = 4, .cores_per_node = 4,
                        .io_block = KiB(128)});
    ASSERT_TRUE(runner.Run(workloads::BuildMontage(SmallMontage())).status.ok());
  }
  RunningStats memfs_balance;
  for (std::uint32_t s = 0; s < 4; ++s) {
    memfs_balance.Add(
        static_cast<double>(mem.storage()->server(s).memory_used()));
  }

  Testbed am(FsKind::kAmfs, BedConfig(4));
  {
    mtc::LocalityScheduler scheduler(*am.amfs());
    mtc::Runner runner(am.simulation(), *am.amfs(), scheduler,
                       {.nodes = 4, .cores_per_node = 4,
                        .io_block = KiB(128)});
    ASSERT_TRUE(runner.Run(workloads::BuildMontage(SmallMontage())).status.ok());
  }
  RunningStats amfs_balance;
  for (std::uint32_t n = 0; n < 4; ++n) {
    amfs_balance.Add(static_cast<double>(am.amfs()->node_memory_used(n)));
  }

  EXPECT_LT(memfs_balance.cv(), 0.2);
  EXPECT_GT(amfs_balance.cv(), memfs_balance.cv() * 2);
  // Replication inflates AMFS aggregate memory above the workflow's data.
  EXPECT_GT(am.amfs()->total_memory_used(),
            mem.storage()->total_memory_used());
}

TEST(IntegrationTest, AmfsRunsOutOfMemoryOnLargeWorkflow) {
  // Montage 12 on AMFS: the aggregation node exhausts its memory (the paper
  // could not run 12x12 on AMFS at all). MemFS with the same per-node budget
  // completes because stripes spread over all nodes.
  workloads::MontageParams params;
  params.degree = 6;
  params.task_scale = 32;  // ~77 images
  params.size_scale = 8;   // ~256-512 KB files; ~90 MB total data
  params.project_cpu_s = 0.5;

  const std::uint64_t node_budget = MiB(48);

  workloads::TestbedConfig config = BedConfig(4);
  config.node_memory_limit = node_budget;
  Testbed am(FsKind::kAmfs, config);
  mtc::LocalityScheduler locality(*am.amfs());
  mtc::Runner amfs_runner(am.simulation(), *am.amfs(), locality,
                          {.nodes = 4, .cores_per_node = 4,
                           .io_block = KiB(256)});
  const auto amfs_result = amfs_runner.Run(workloads::BuildMontage(params));
  EXPECT_FALSE(amfs_result.status.ok());
  EXPECT_EQ(amfs_result.status.code(), ErrorCode::kNoSpace);

  // Same per-node budget for the kv servers.
  Testbed mem(FsKind::kMemFs, config);
  mtc::UniformScheduler uniform;
  mtc::Runner memfs_runner(mem.simulation(), *mem.memfs(), uniform,
                           {.nodes = 4, .cores_per_node = 4,
                            .io_block = KiB(256)});
  const auto memfs_result = memfs_runner.Run(workloads::BuildMontage(params));
  EXPECT_TRUE(memfs_result.status.ok()) << memfs_result.status;
}

TEST(IntegrationTest, BlastRunsOnBothFileSystems) {
  workloads::BlastParams params;
  params.fragments = 512;
  params.task_scale = 64;       // 8 fragments
  params.size_scale = 256;      // ~440 KB fragments
  params.queries_per_fragment = 2;
  params.formatdb_cpu_s = 2.0;
  params.blastall_cpu_s = 1.0;

  Testbed mem(FsKind::kMemFs, BedConfig(4));
  mtc::UniformScheduler uniform;
  mtc::Runner mem_runner(mem.simulation(), *mem.memfs(), uniform,
                         {.nodes = 4, .cores_per_node = 2,
                          .io_block = KiB(256)});
  const auto mem_result = mem_runner.Run(workloads::BuildBlast(params));
  ASSERT_TRUE(mem_result.status.ok()) << mem_result.status;
  EXPECT_NE(mem_result.Stage("blastall"), nullptr);

  Testbed am(FsKind::kAmfs, BedConfig(4));
  mtc::LocalityScheduler locality(*am.amfs());
  mtc::Runner am_runner(am.simulation(), *am.amfs(), locality,
                        {.nodes = 4, .cores_per_node = 2,
                         .io_block = KiB(256)});
  const auto am_result = am_runner.Run(workloads::BuildBlast(params));
  ASSERT_TRUE(am_result.status.ok()) << am_result.status;
}

TEST(IntegrationTest, MemFsFasterThanAmfsOnDiffFit) {
  // mDiffFit reads two inputs; AMFS can serve at most one locally. The
  // paper's central performance claim, at toy scale.
  auto montage = SmallMontage();

  Testbed mem(FsKind::kMemFs, BedConfig(4));
  mtc::UniformScheduler uniform;
  mtc::Runner mem_runner(mem.simulation(), *mem.memfs(), uniform,
                         {.nodes = 4, .cores_per_node = 4,
                          .io_block = KiB(128)});
  const auto mem_result = mem_runner.Run(workloads::BuildMontage(montage));
  ASSERT_TRUE(mem_result.status.ok());

  Testbed am(FsKind::kAmfs, BedConfig(4));
  mtc::LocalityScheduler locality(*am.amfs());
  mtc::Runner am_runner(am.simulation(), *am.amfs(), locality,
                        {.nodes = 4, .cores_per_node = 4,
                         .io_block = KiB(128)});
  const auto am_result = am_runner.Run(workloads::BuildMontage(montage));
  ASSERT_TRUE(am_result.status.ok());

  EXPECT_LT(mem_result.MakespanSeconds(), am_result.MakespanSeconds());
}

// --- Envelope engine ---

TEST(EnvelopeTest, MemFsPhasesProduceSaneNumbers) {
  Testbed stack(FsKind::kMemFs, BedConfig(4));
  workloads::EnvelopeParams params;
  params.nodes = 4;
  params.file_size = MiB(1);
  params.files_per_proc = 3;
  workloads::EnvelopeBench bench(stack.simulation(), *stack.memfs(), params);

  const auto write = bench.RunWrite();
  EXPECT_EQ(write.bytes, MiB(1) * 12);
  EXPECT_GT(write.BandwidthMBps(), 0.0);

  const auto read11 = bench.RunRead11();
  EXPECT_EQ(read11.bytes, MiB(1) * 12);
  EXPECT_GT(read11.BandwidthMBps(), write.BandwidthMBps() * 0.2);

  const auto readn1 = bench.RunReadN1();
  EXPECT_EQ(readn1.bytes, MiB(1) * 4);

  const auto create = bench.RunCreate(8);
  EXPECT_EQ(create.ops, 32u);
  EXPECT_GT(create.OpsPerSec(), 0.0);
  const auto open = bench.RunOpen();
  EXPECT_EQ(open.ops, 32u);
  // MemFS open beats create (get vs add+append, §4.1).
  EXPECT_GT(open.OpsPerSec(), create.OpsPerSec());
}

TEST(EnvelopeTest, AmfsMulticastPattern) {
  Testbed stack(FsKind::kAmfs, BedConfig(4));
  workloads::EnvelopeParams params;
  params.nodes = 4;
  params.file_size = MiB(1);
  params.files_per_proc = 2;
  workloads::EnvelopeBench bench(stack.simulation(), *stack.amfs(), params,
                                 stack.amfs());
  (void)bench.RunWrite();
  const auto readn1 = bench.RunReadN1();
  // Multicast dominates: bandwidth span is longer than the local-read span.
  EXPECT_GT(readn1.span, readn1.work_span);
  // Throughput (local reads after multicast) is much faster than the
  // bandwidth including the multicast.
  EXPECT_GT(readn1.WorkBandwidthMBps(), readn1.BandwidthMBps());
}

TEST(EnvelopeTest, AmfsRemoteReadPenalty) {
  Testbed stack(FsKind::kAmfs, BedConfig(4));
  workloads::EnvelopeParams params;
  params.nodes = 4;
  params.file_size = MiB(1);
  params.files_per_proc = 2;
  workloads::EnvelopeBench bench(stack.simulation(), *stack.amfs(), params,
                                 stack.amfs());
  (void)bench.RunWrite();
  const auto local = bench.RunRead11(0);   // locality achieved
  // NOTE: after the local pass every file has replicas only at its writer,
  // so a shifted pass is a true remote read.
  const auto remote = bench.RunRead11(1);  // locality lost
  EXPECT_GT(local.BandwidthMBps(), remote.BandwidthMBps() * 2);
}

TEST(EnvelopeTest, DeterministicAcrossRuns) {
  auto run = [] {
    Testbed stack(FsKind::kMemFs, BedConfig(2));
    workloads::EnvelopeParams params;
    params.nodes = 2;
    params.file_size = KiB(256);
    params.files_per_proc = 2;
    workloads::EnvelopeBench bench(stack.simulation(), *stack.memfs(), params);
    const auto write = bench.RunWrite();
    const auto read = bench.RunRead11();
    return std::pair{write.span, read.span};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace memfs

// Shared plumbing for the bench harnesses: one envelope configuration or one
// workflow run on a fresh Testbed. The paper-figure table (paper_cells.h)
// and the ablations build their data points through these helpers.
#pragma once

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "common/table.h"
#include "common/units.h"
#include "mtc/runner.h"
#include "mtc/scheduler.h"
#include "workloads/envelope.h"
#include "workloads/testbed.h"

namespace memfs::bench {

// Results of one envelope configuration (one cluster size / file size / FS).
struct EnvelopeCell {
  workloads::PhaseResult write;
  workloads::PhaseResult read11;
  workloads::PhaseResult read11_remote;  // only when remote_shift requested
  workloads::PhaseResult readn1;
  workloads::PhaseResult create;
  workloads::PhaseResult open;
};

struct EnvelopeCellParams {
  workloads::FsKind kind = workloads::FsKind::kMemFs;
  workloads::Fabric fabric = workloads::Fabric::kDas4Ipoib;
  std::uint32_t nodes = 8;
  std::uint32_t procs_per_node = 1;
  std::uint64_t file_size = units::MiB(1);
  std::uint32_t files_per_proc = 4;
  std::uint64_t io_block = 0;  // 0 -> min(file, 1 MiB)
  std::uint32_t meta_files_per_proc = 32;
  bool run_remote_read = false;  // also measure shift-by-one 1-1 reads
  fs::MemFsConfig memfs;         // client tuning (stripe size, threads, ...)
  // Per-file AMFS Shell job-scheduling latency charged in AMFS data phases
  // (see EnvelopeParams::per_file_job_overhead).
  sim::SimTime amfs_job_overhead = units::Micros(800);
};

// Runs write -> 1-1 read -> (remote 1-1) -> N-1 read -> create -> open on a
// fresh testbed and returns all phase results.
inline EnvelopeCell RunEnvelopeCell(const EnvelopeCellParams& params) {
  workloads::TestbedConfig config;
  config.nodes = params.nodes;
  config.fabric = params.fabric;
  config.memfs = params.memfs;
  workloads::Testbed bed(params.kind, config);

  workloads::EnvelopeParams env;
  env.nodes = params.nodes;
  env.procs_per_node = params.procs_per_node;
  env.file_size = params.file_size;
  env.files_per_proc = params.files_per_proc;
  env.io_block = params.io_block;
  if (params.kind == workloads::FsKind::kAmfs) {
    env.per_file_job_overhead = params.amfs_job_overhead;
  }
  workloads::EnvelopeBench bench(bed.simulation(), bed.vfs(), env,
                                 bed.amfs());

  EnvelopeCell cell;
  cell.write = bench.RunWrite();
  cell.read11 = bench.RunRead11();
  if (params.run_remote_read && params.nodes > 1) {
    cell.read11_remote = bench.RunRead11(1);
  }
  cell.readn1 = bench.RunReadN1();
  cell.create = bench.RunCreate(params.meta_files_per_proc);
  cell.open = bench.RunOpen();
  return cell;
}

// One workflow execution on a fresh testbed; picks the scheduler the paper
// pairs with each file system.
struct WorkflowCellParams {
  workloads::FsKind kind = workloads::FsKind::kMemFs;
  workloads::Fabric fabric = workloads::Fabric::kDas4Ipoib;
  std::uint64_t fabric_bandwidth = 0;  // 0 = preset (full bisection)
  std::uint32_t nodes = 8;
  std::uint32_t cores_per_node = 8;
  std::uint64_t io_block = units::KiB(256);
  std::uint64_t node_memory_limit = units::GiB(20);
  fs::MemFsConfig memfs;
};

struct WorkflowCell {
  mtc::WorkflowResult result;
  std::unique_ptr<workloads::Testbed> bed;  // kept alive for accounting
};

inline WorkflowCell RunWorkflowCell(const WorkflowCellParams& params,
                                    const mtc::Workflow& workflow) {
  workloads::TestbedConfig config;
  config.nodes = params.nodes;
  config.fabric = params.fabric;
  config.fabric_bandwidth = params.fabric_bandwidth;
  config.node_memory_limit = params.node_memory_limit;
  config.memfs = params.memfs;

  WorkflowCell cell;
  cell.bed = std::make_unique<workloads::Testbed>(params.kind, config);

  mtc::RunnerConfig runner_config;
  runner_config.nodes = params.nodes;
  runner_config.cores_per_node = params.cores_per_node;
  runner_config.io_block = params.io_block;

  if (params.kind == workloads::FsKind::kAmfs) {
    // The paper pairs AMFS with the locality-aware AMFS Shell scheduler;
    // every striping-based file system runs locality-agnostic.
    mtc::LocalityScheduler scheduler(*cell.bed->amfs());
    mtc::Runner runner(cell.bed->simulation(), cell.bed->vfs(), scheduler,
                       runner_config);
    cell.result = runner.Run(workflow);
  } else {
    mtc::UniformScheduler scheduler;
    mtc::Runner runner(cell.bed->simulation(), cell.bed->vfs(), scheduler,
                       runner_config);
    cell.result = runner.Run(workflow);
  }
  return cell;
}

}  // namespace memfs::bench

// Workflow execution engine (the AMFS Shell stand-in).
//
// The runner owns the cluster's core slots (nodes x cores), asks a Scheduler
// where each ready task should run, and executes tasks as simulated
// processes: read every input through the Vfs, compute, write every output.
// Task dependencies are the producer/consumer relations over the workflow's
// file table.
//
// Every byte read is verified against the deterministic content seed of its
// file, so a striping, buffering, caching or replication bug in either file
// system fails a workflow run loudly instead of skewing a benchmark.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "memfs/vfs.h"
#include "mtc/scheduler.h"
#include "mtc/workflow.h"
#include "sim/future.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "trace/trace.h"

namespace memfs::mtc {

struct RunnerConfig {
  std::uint32_t nodes = 1;
  std::uint32_t cores_per_node = 1;
  // Application I/O granularity (read()/write() call size). Montage and
  // BLAST issue 4 KB calls in the paper; the default is larger to keep
  // simulated call counts tractable on big workflows — Fig. 16 uses 4 KB
  // explicitly.
  std::uint64_t io_block = units::KiB(256);
  // Optional caller-owned workflow counters: mtc.tasks_run,
  // mtc.task_failures, mtc.bytes_read/written, and an mtc.task duration
  // histogram — the same registry the benches already print.
  MetricsRegistry* metrics = nullptr;
  // Optional caller-owned request tracer. Each Run() opens one trace rooted
  // at a "workflow:<name>" span; every task runs under its own span and the
  // context flows through the VFS into stripes, kv attempts and network
  // legs, so the whole DAG is one causal tree (see trace/critical_path.h).
  trace::Tracer* tracer = nullptr;
};

struct StageStats {
  std::string stage;
  std::uint64_t tasks = 0;
  sim::SimTime first_start = std::numeric_limits<sim::SimTime>::max();
  sim::SimTime last_end = 0;
  // Sum of per-task wall durations — the stage's total core-busy time,
  // independent of how densely the scheduler packed it.
  sim::SimTime busy = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  double SpanSeconds() const {
    return last_end > first_start ? units::ToSeconds(last_end - first_start)
                                  : 0.0;
  }
  double BusySeconds() const { return units::ToSeconds(busy); }

  // I/O bandwidth a core sustains while running this stage's tasks.
  double PerCoreMBps() const {
    const double busy_s = BusySeconds();
    if (busy_s <= 0.0) return 0.0;
    return static_cast<double>(bytes_read + bytes_written) / 1e6 / busy_s;
  }
};

struct WorkflowResult {
  Status status;  // first task failure, or a driver that did not finish
  std::string failed_task;
  sim::SimTime started = 0;
  sim::SimTime finished = 0;
  std::vector<StageStats> stages;  // ordered by first start
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  // Trace of this run (0 when RunnerConfig::tracer is null).
  trace::TraceId trace_id = 0;

  double MakespanSeconds() const {
    return units::ToSeconds(finished - started);
  }
  const StageStats* Stage(std::string_view name) const {
    for (const auto& s : stages) {
      if (s.stage == name) return &s;
    }
    return nullptr;
  }
};

class Runner {
 public:
  Runner(sim::Simulation& sim, fs::Vfs& vfs, Scheduler& scheduler,
         RunnerConfig config);

  // Executes the workflow to completion (drives the simulation loop) and
  // returns per-stage timing and I/O accounting.
  WorkflowResult Run(const Workflow& workflow);

  // The Simulation this runner's coroutines run on.
  sim::Simulation& simulation() const { return sim_; }

 private:
  struct Completion {
    std::size_t task_index;
    net::NodeId node;
    std::uint32_t slot;
    Status status;
    sim::SimTime started;
    sim::SimTime ended;
    std::uint64_t bytes_read;
    std::uint64_t bytes_written;
  };

  // What Run() learns from its driver coroutine.
  struct DriveProgress {
    bool finished = false;
    std::size_t tasks_done = 0;
  };

  sim::Task Drive(const Workflow& workflow, WorkflowResult* result,
                  DriveProgress* progress, trace::TraceContext root);
  sim::Task ExecuteTask(const Workflow& workflow, std::size_t index,
                        net::NodeId node, std::uint32_t slot,
                        trace::TraceContext root);

  // Reads `workflow`'s file `id` fully in io_block chunks; returns bytes
  // read or an error. Verifies content against FileSeed(path). The
  // workflow outlives the run.
  [[nodiscard]] sim::Future<Result<std::uint64_t>> ReadWholeFile(
      fs::VfsContext ctx, const Workflow& workflow, FileId id);
  [[nodiscard]] sim::Future<Status> WriteWholeFile(fs::VfsContext ctx,
                                                   const Workflow& workflow,
                                                   FileId id);

  sim::Simulation& sim_;
  fs::Vfs& vfs_;
  Scheduler& scheduler_;
  RunnerConfig config_;

  // Driver <-> executor rendezvous.
  std::deque<Completion> completions_;
  std::unique_ptr<sim::Semaphore> wake_;
  // Set by Run() before it wakes a driver that nothing else will wake, so
  // the driver returns (and frees its frame) instead of reading a
  // completion.
  bool abandoned_ = false;
};

}  // namespace memfs::mtc

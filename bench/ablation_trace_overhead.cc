// Ablation — cost of request tracing.
//
// The tracer's contract has two halves. Correctness: attaching it must not
// change the simulation — recording spans never schedules events or draws
// randomness, so the event digest of a traced run equals the untraced one
// (asserted here; the run aborts on mismatch). Cost: tracing is real-time
// overhead only — simulated results are identical — and this harness bounds
// it by wall-clocking the same Montage run with tracing off and on.
//
// Wall-clock numbers are the one deliberately nondeterministic output in
// the bench suite: they measure the host, not the simulation.
#include <chrono>
#include <cstdint>
#include <iostream>

#include "common/table.h"
#include "mtc/runner.h"
#include "mtc/scheduler.h"
#include "trace/trace.h"
#include "workloads/montage.h"
#include "workloads/testbed.h"

using namespace memfs;  // NOLINT

namespace {

struct Cell {
  std::uint64_t digest = 0;
  double makespan = 0.0;
  std::uint64_t spans = 0;
  double wall_ms = 0.0;
};

Cell RunCell(const mtc::Workflow& workflow, bool traced) {
  workloads::TestbedConfig config;
  config.nodes = 8;
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);

  trace::Tracer tracer(bed.simulation());
  mtc::UniformScheduler scheduler;
  mtc::RunnerConfig runner_config;
  runner_config.nodes = config.nodes;
  runner_config.cores_per_node = 8;
  if (traced) runner_config.tracer = &tracer;
  mtc::Runner runner(bed.simulation(), bed.vfs(), scheduler, runner_config);

  // lint: allow(nondeterminism) wall-clock overhead is what this measures
  const auto wall_start = std::chrono::steady_clock::now();
  const auto result = runner.Run(workflow);
  // lint: allow(nondeterminism) wall-clock overhead is what this measures
  const auto wall_end = std::chrono::steady_clock::now();
  if (!result.status.ok()) {
    std::cerr << "workflow failed: " << result.status.ToString() << "\n";
    std::exit(1);
  }

  Cell cell;
  cell.digest = bed.simulation().EventDigest();
  cell.makespan = result.MakespanSeconds();
  cell.spans = tracer.spans_started();
  cell.wall_ms = std::chrono::duration<double, std::milli>(wall_end -
                                                           wall_start)
                     .count();
  return cell;
}

// Best of `reps` runs: the minimum is the least noisy wall-clock estimator.
Cell BestOf(const mtc::Workflow& workflow, bool traced, int reps) {
  Cell best = RunCell(workflow, traced);
  for (int i = 1; i < reps; ++i) {
    Cell next = RunCell(workflow, traced);
    if (next.wall_ms < best.wall_ms) best = next;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = WantCsv(argc, argv);

  workloads::MontageParams montage;
  montage.degree = 6;
  montage.task_scale = 64;
  montage.size_scale = 16;
  const auto workflow = workloads::BuildMontage(montage);

  std::cout << "# Ablation: request-tracing overhead (Montage 6x6, 8 nodes, "
               "task_scale=64, size_scale=16, best of 3)\n";
  const Cell off = BestOf(workflow, /*traced=*/false, 3);
  const Cell on = BestOf(workflow, /*traced=*/true, 3);

  if (off.digest != on.digest) {
    std::cerr << "FAIL: tracing changed the simulation event stream (digest "
              << on.digest << " != " << off.digest << ")\n";
    return 1;
  }
  if (off.makespan != on.makespan) {
    std::cerr << "FAIL: tracing changed the simulated makespan\n";
    return 1;
  }

  Table table({"tracing", "spans", "simulated makespan (s)", "wall (ms)"});
  table.AddRow({"off", Table::Int(off.spans), Table::Num(off.makespan, 4),
                Table::Num(off.wall_ms, 1)});
  table.AddRow({"on", Table::Int(on.spans), Table::Num(on.makespan, 4),
                Table::Num(on.wall_ms, 1)});
  table.Print(std::cout, csv);

  const double overhead =
      off.wall_ms > 0 ? (on.wall_ms - off.wall_ms) / off.wall_ms * 100 : 0;
  std::cout << "\nevent digest unchanged by tracing: " << off.digest
            << "\nwall-clock overhead: " << Table::Num(overhead, 1) << "% for "
            << on.spans << " spans ("
            << Table::Num(on.spans > 0 ? (on.wall_ms - off.wall_ms) * 1e6 /
                                             static_cast<double>(on.spans)
                                       : 0,
                          0)
            << " ns/span)\n";
  return 0;
}

// Full MTC lifecycle example (§2): stage inputs from permanent, disk-backed
// storage into the in-memory runtime FS, execute a Montage workflow against
// it, and stage the results back out — showing why the detour through a
// runtime file system pays off even including both staging phases.
//
//   $ ./build/examples/workflow_lifecycle
#include <cstdio>
#include <string>

#include "common/units.h"
#include "kvstore/kv_cluster.h"
#include "memfs/memfs.h"
#include "mtc/runner.h"
#include "mtc/scheduler.h"
#include "mtc/staging.h"
#include "net/fluid_network.h"
#include "workloads/montage.h"
#include "workloads/testbed.h"

namespace {

using namespace memfs;         // NOLINT: example brevity
using namespace memfs::units;  // NOLINT

constexpr std::uint32_t kNodes = 8;

// Disk-era cost model for the permanent store (GPFS class).
kv::KvOpCostModel DiskCosts() {
  kv::KvOpCostModel costs;
  costs.set_base = Millis(5);
  costs.set_ns_per_byte = 10.0;
  costs.get_base = Millis(5);
  costs.get_ns_per_byte = 10.0;
  costs.append_base = Millis(6);
  costs.append_ns_per_byte = 10.0;
  costs.delete_base = Millis(5);
  costs.workers = 4;
  return costs;
}

}  // namespace

int main() {
  // One simulated cluster hosting both deployments: a disk-backed permanent
  // store and the DRAM runtime FS.
  sim::Simulation sim;
  net::FairShareNetwork network(sim, net::Das4Ipoib(kNodes));
  std::vector<net::NodeId> all_nodes;
  for (std::uint32_t n = 0; n < kNodes; ++n) all_nodes.push_back(n);

  kv::KvServerConfig disk_server;
  disk_server.memory_limit = GiB(4096);  // disks: effectively unbounded
  disk_server.max_object_size = GiB(1);
  kv::KvCluster permanent_storage(sim, network, all_nodes, disk_server,
                                  DiskCosts());
  fs::MemFsConfig disk_client;
  disk_client.io_threads = 0;     // strict POSIX: synchronous writes
  disk_client.prefetch_depth = 0;
  fs::MemFs permanent(sim, network, permanent_storage, disk_client);

  kv::KvCluster runtime_storage(sim, network, all_nodes);
  fs::MemFs runtime(sim, network, runtime_storage, fs::MemFsConfig{});

  // The workflow, with its stage_in tasks stripped: inputs come from the
  // permanent store instead.
  workloads::MontageParams params;
  params.degree = 6;
  params.task_scale = 32;
  params.size_scale = 16;
  params.project_cpu_s = 2.0;
  mtc::Workflow workflow = workloads::BuildMontage(params);

  std::printf("Montage lifecycle on %u nodes: %zu tasks, %.1f MB runtime "
              "data\n\n",
              kNodes, workflow.tasks.size(),
              static_cast<double>(workflow.TotalOutputBytes()) / 1e6);

  // Splits off the tasks of (or outside) stage_in; both parts copy the
  // workflow's file and string tables, so file ids keep their meaning.
  auto split = [&workflow](std::string name, bool stage_in) {
    mtc::Workflow part;
    part.name = std::move(name);
    part.files = workflow.files;
    part.strings = workflow.strings;
    for (std::size_t i = 0; i < workflow.tasks.size(); ++i) {
      const mtc::TaskSpec& task = workflow.tasks[i];
      if ((workflow.StageName(task) == "stage_in") != stage_in) continue;
      part.AddTask(workflow.TaskName(i), workflow.StageName(task),
                   workflow.Inputs(task), workflow.Outputs(task),
                   task.cpu_time);
    }
    return part;
  };

  // 1. Seed the permanent store with the input images (archive contents).
  mtc::Workflow seed = split("seed-archive", true);
  seed.directories = workflow.directories;
  mtc::UniformScheduler seed_scheduler;
  mtc::Runner seeder(sim, permanent, seed_scheduler,
                     {.nodes = kNodes, .cores_per_node = 4});
  auto seeded = seeder.Run(seed);
  if (!seeded.status.ok()) {
    std::printf("seeding failed: %s\n", seeded.status.ToString().c_str());
    return 1;
  }
  std::printf("[archive]   %zu input files on disk-backed storage\n",
              seed.tasks.size());

  // 2. Stage in: copy the raw inputs into the runtime FS.
  mtc::Stager stager(sim, {.streams = 16, .nodes = kNodes});
  const auto stage_in =
      stager.CopyTree(permanent, runtime, workflow.directories.front());
  if (!stage_in.status.ok()) {
    std::printf("stage-in failed: %s\n", stage_in.status.ToString().c_str());
    return 1;
  }
  std::printf("[stage-in]  %llu files, %.1f MB in %.2f s (%.0f MB/s)\n",
              static_cast<unsigned long long>(stage_in.files),
              static_cast<double>(stage_in.bytes) / 1e6,
              ToSeconds(stage_in.elapsed), stage_in.BandwidthMBps());

  // 3. Run the workflow (minus stage_in) against the runtime FS.
  const mtc::Workflow compute = split(workflow.name, false);
  mtc::UniformScheduler scheduler;
  mtc::Runner runner(sim, runtime, scheduler,
                     {.nodes = kNodes, .cores_per_node = 8});
  const auto result = runner.Run(compute);
  if (!result.status.ok()) {
    std::printf("workflow failed: %s\n", result.status.ToString().c_str());
    return 1;
  }
  std::printf("[workflow]  makespan %.2f s (%.1f MB written to MemFS)\n",
              result.MakespanSeconds(),
              static_cast<double>(result.bytes_written) / 1e6);

  // 4. Stage out: only the mosaic goes back to permanent storage.
  const std::string mosaic = "/montage6/mosaic.fits";
  const auto stage_out = stager.CopyFiles(runtime, permanent, {mosaic});
  if (!stage_out.status.ok()) {
    std::printf("stage-out failed: %s\n",
                stage_out.status.ToString().c_str());
    return 1;
  }
  std::printf("[stage-out] %.1f MB mosaic archived in %.2f s\n",
              static_cast<double>(stage_out.bytes) / 1e6,
              ToSeconds(stage_out.elapsed));

  const double total = ToSeconds(stage_in.elapsed) +
                       result.MakespanSeconds() +
                       ToSeconds(stage_out.elapsed);
  std::printf("\ntotal lifecycle: %.2f s — the intermediate data (the bulk "
              "of all I/O) never touched a disk.\n",
              total);
  return 0;
}

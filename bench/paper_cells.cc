#include "paper_cells.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "hash/distributor.h"
#include "kvstore/kv_cluster.h"
#include "memfs/memfs.h"
#include "mtc/runner.h"
#include "mtc/scheduler.h"
#include "net/network.h"
#include "sim/fault.h"
#include "sim/task.h"
#include "workloads/blast.h"
#include "workloads/chaos.h"
#include "workloads/envelope.h"
#include "workloads/montage.h"

namespace memfs::bench {
namespace {

using units::KiB;
using units::MiB;
using workloads::Fabric;
using workloads::FsKind;

constexpr std::uint32_t kNodeSweep[] = {8, 16, 32, 64};

mtc::Workflow BuildScaled(Workload workload, bool full_scale) {
  switch (workload) {
    case Workload::kMontage6:
    case Workload::kMontage12:
    case Workload::kMontage16: {
      workloads::MontageParams m;
      m.degree = workload == Workload::kMontage6    ? 6
                 : workload == Workload::kMontage12 ? 12
                                                    : 16;
      if (!full_scale) {
        m.task_scale = workload == Workload::kMontage16 ? 16 : 4;
        m.size_scale = 16;
        m.project_cpu_s = 6.0;
      }
      return workloads::BuildMontage(m);
    }
    case Workload::kMontage6Io:
    case Workload::kMontage6Small: {
      const bool io = workload == Workload::kMontage6Io;
      workloads::MontageParams m;
      m.task_scale = io ? 8 : 16;
      m.size_scale = io ? 4 : 16;
      m.project_cpu_s = io ? 0.5 : 2.0;
      return workloads::BuildMontage(m);
    }
    case Workload::kBlastDas4:
    case Workload::kBlastEc2: {
      const bool ec2 = workload == Workload::kBlastEc2;
      workloads::BlastParams b;
      b.fragments = ec2 ? 1024 : 512;
      if (!full_scale) {
        b.task_scale = ec2 ? 2 : 1;  // 512 fragments simulated either way
        b.size_scale = 128;
        b.queries_per_fragment = 4;
        b.formatdb_cpu_s = 8.0;
        b.blastall_cpu_s = 3.0;
      }
      return workloads::BuildBlast(b);
    }
    case Workload::kNone:
      break;
  }
  return {};
}

fs::MemFsConfig MemFsKnobs(const CellParams& p) {
  fs::MemFsConfig config;
  if (p.stripe != 0) config.stripe_size = p.stripe;
  if (p.io_threads) config.io_threads = *p.io_threads;
  if (p.read_threads) {
    config.read_threads = *p.read_threads;
    config.prefetch_depth = *p.read_threads;
  }
  if (p.prefetch_depth) config.prefetch_depth = *p.prefetch_depth;
  if (p.read_cache_bytes != 0) config.read_cache_bytes = p.read_cache_bytes;
  config.replication = p.replication;
  config.io.batching = p.io_batching;
  if (p.max_batch_ops != 0) config.io.max_batch_ops = p.max_batch_ops;
  config.fuse.enabled = !p.library_mode;
  config.fuse.mounts_per_node = p.mounts;
  if (p.contended_fuse) {
    // Montage's 4 KB calls on the c3.8xlarge NUMA nodes: every call crosses
    // the FUSE spinlock, whose critical section lengthens with cross-socket
    // contention (the kernel path the paper diagnosed).
    config.fuse.op_cost = units::Micros(25);
    config.fuse.contention_factor = 0.30;
  }
  config.use_ketama = p.use_ketama;
  config.hash_kind = p.hash;
  config.metadata = p.metadata;
  if (p.dir_shards != 0) config.meta.dir_shards = p.dir_shards;
  return config;
}

workloads::TestbedConfig BedConfig(const CellParams& p) {
  workloads::TestbedConfig config;
  config.nodes = p.nodes;
  config.fabric = p.fabric;
  config.net_model = p.net_model;
  config.fabric_bandwidth = p.fabric_bandwidth;
  if (p.node_memory != 0) config.node_memory_limit = p.node_memory;
  config.memfs = MemFsKnobs(p);
  return config;
}

workloads::EnvelopeParams EnvelopeOf(const CellParams& p) {
  workloads::EnvelopeParams env;
  env.nodes = p.nodes;
  env.procs_per_node = p.procs;
  env.file_size = p.file_size;
  env.files_per_proc = p.files;
  env.io_block = p.io_block;
  if (p.fs == FsKind::kAmfs && p.amfs_shell_jobs) {
    // Every iozone file runs as its own AMFS Shell job and pays the Shell's
    // locality-scheduling latency in the data phases.
    env.per_file_job_overhead = units::Micros(800);
  }
  return env;
}

// What the data path has done so far; a phase's share is the difference
// between the snapshots around it.
struct Counters {
  std::uint64_t wire_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t rpcs = 0;    // single-key and batch RPCs the servers saw
  std::uint64_t kv_ops = 0;  // the kv operations those RPCs carried
};

Counters Snapshot(workloads::Testbed& bed) {
  Counters c;
  c.wire_bytes = bed.network().total_bytes();
  if (const fs::MemFs* memfs = bed.memfs()) {
    c.cache_hits = memfs->stats().cache_hits;
    c.cache_misses = memfs->stats().cache_misses;
  }
  if (const kv::KvCluster* storage = bed.storage()) {
    const kv::KvClusterStats stats = storage->stats();
    c.rpcs = stats.single_rpcs + stats.batch_rpcs;
    c.kv_ops = stats.single_rpcs + stats.batch_items;
  }
  return c;
}

// Write -> 1-1 read -> (remote 1-1) -> N-1 read -> create -> open. Counters
// are read at the phase boundaries: the write's wire bytes, the bytes
// stored after the 1-1 read, the 1-1 read's cache hit rate, and the kv RPCs
// of the whole run but the remote and N-1 reads (total_s leaves out their
// seconds too).
void RunEnvelope(const CellParams& p, CellResult& out) {
  workloads::Testbed bed(p.fs, BedConfig(p));
  workloads::EnvelopeBench bench(bed.simulation(), bed.vfs(), EnvelopeOf(p),
                                 bed.amfs());
  const Counters at_start = Snapshot(bed);
  const workloads::PhaseResult write = bench.RunWrite();
  const Counters after_write = Snapshot(bed);
  const workloads::PhaseResult read11 = bench.RunRead11();
  const Counters after_read11 = Snapshot(bed);
  const std::uint64_t stored = bed.TotalMemoryUsed();
  const workloads::PhaseResult remote = p.remote_read && p.nodes > 1
                                            ? bench.RunRead11(1)
                                            : workloads::PhaseResult{};
  const workloads::PhaseResult readn1 = bench.RunReadN1();
  const Counters after_readn1 = Snapshot(bed);
  const workloads::PhaseResult create = bench.RunCreate(p.meta_files);
  const workloads::PhaseResult open = bench.RunOpen();
  const Counters at_end = Snapshot(bed);
  for (const auto* phase :
       {&write, &read11, &remote, &readn1, &create, &open}) {
    if (out.status.ok()) out.status = phase->status;  // the first failure
  }

  auto& m = out.metrics;
  m["write_MBps"] = write.BandwidthMBps();
  m["read11_MBps"] = read11.BandwidthMBps();
  m["readn1_MBps"] = readn1.BandwidthMBps();
  m["write_ops"] = write.OpsPerSec();
  m["read11_ops"] = read11.OpsPerSec();
  m["readn1_ops"] = readn1.OpsPerSec();
  m["create_ops"] = create.OpsPerSec();
  m["open_ops"] = open.OpsPerSec();
  m["write_MBps_node"] = m["write_MBps"] / p.nodes;
  m["read11_MBps_node"] = m["read11_MBps"] / p.nodes;
  if (p.remote_read) {
    m["remote11_MBps"] = remote.BandwidthMBps();
    m["remote_penalty"] = m["read11_MBps"] / m["remote11_MBps"];
  }
  m["write_s"] = units::ToSeconds(write.span);
  m["read11_s"] = units::ToSeconds(read11.span);
  m["create_s"] = units::ToSeconds(create.span);
  m["open_s"] = units::ToSeconds(open.span);
  m["total_s"] = m["write_s"] + m["read11_s"] + m["create_s"] + m["open_s"];

  m["stored_MB"] = static_cast<double>(stored) / 1e6;
  m["write_wire_MB"] =
      static_cast<double>(after_write.wire_bytes - at_start.wire_bytes) / 1e6;
  const double hits = static_cast<double>(after_read11.cache_hits -
                                          after_write.cache_hits);
  const double misses = static_cast<double>(after_read11.cache_misses -
                                            after_write.cache_misses);
  m["read11_hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  const std::uint64_t rpcs =
      after_read11.rpcs + at_end.rpcs - after_readn1.rpcs;
  const std::uint64_t ops =
      after_read11.kv_ops + at_end.kv_ops - after_readn1.kv_ops;
  m["kv_rpcs"] = static_cast<double>(rpcs);
  m["ops_per_rpc"] = rpcs == 0 ? 0.0
                               : static_cast<double>(ops) /
                                     static_cast<double>(rpcs);
  // A running maximum, so it covers every phase.
  if (const fs::MemFs* memfs = bed.memfs()) {
    m["max_batch"] = static_cast<double>(memfs->scheduler().stats().max_batch);
  }
}

// Application bytes vs bytes on the wire while every process writes its
// files and reads a neighbour's back (shift-by-one forces remote reads).
void RunWire(const CellParams& p, CellResult& out) {
  workloads::Testbed bed(p.fs, BedConfig(p));
  workloads::EnvelopeBench bench(bed.simulation(), bed.vfs(), EnvelopeOf(p),
                                 bed.amfs());
  const std::uint64_t wire_before = bed.network().total_bytes();
  const sim::SimTime t0 = bed.simulation().now();
  const auto write = bench.RunWrite();
  const auto read = bench.RunRead11(1);
  out.status = write.status.ok() ? read.status : write.status;
  const sim::SimTime elapsed = bed.simulation().now() - t0;
  const std::uint64_t wire = bed.network().total_bytes() - wire_before;

  const double app = units::MBps(write.bytes + read.bytes, elapsed) / p.nodes;
  // Each flow byte appears at a sender NIC and a receiver NIC.
  const double system = units::MBps(2 * wire, elapsed) / p.nodes;
  out.metrics["app_MBps_node"] = app;
  out.metrics["system_MBps_node"] = system;
  out.metrics["system_ratio"] = app > 0 ? system / app : 0;
  out.sim_events = bed.simulation().events_processed();
  out.solver = bed.network().stats();
}

void RunWorkflow(const CellParams& p, const mtc::Workflow& workflow,
                 CellResult& out) {
  workloads::Testbed bed(p.fs, BedConfig(p));
  mtc::RunnerConfig runner_config;
  runner_config.nodes = p.nodes;
  runner_config.cores_per_node = p.procs;
  if (p.io_block != 0) runner_config.io_block = p.io_block;
  // The paper pairs AMFS with the locality-aware AMFS Shell scheduler; every
  // striping-based file system runs locality-agnostic.
  mtc::UniformScheduler uniform;
  std::optional<mtc::LocalityScheduler> locality;
  if (p.fs == FsKind::kAmfs) locality.emplace(*bed.amfs());
  mtc::Scheduler& scheduler =
      locality ? static_cast<mtc::Scheduler&>(*locality) : uniform;
  mtc::Runner runner(bed.simulation(), bed.vfs(), scheduler, runner_config);
  const mtc::WorkflowResult result = runner.Run(workflow);
  out.status = result.status;
  out.sim_events = bed.simulation().events_processed();
  out.solver = bed.network().stats();

  auto& m = out.metrics;
  m["makespan_s"] = result.MakespanSeconds();
  for (const mtc::StageStats& stage : result.stages) {
    m[stage.stage + "_s"] = stage.SpanSeconds();
    // Per-node application bandwidth while the node's cores run the stage,
    // from core-busy time so sparse stage packing does not dilute it.
    m[stage.stage + "_MBps_node"] = stage.PerCoreMBps() * p.procs;
  }

  RunningStats balance;
  std::uint64_t total = 0;
  std::uint64_t busiest = 0;
  for (std::uint32_t n = 0; n < p.nodes; ++n) {
    const std::uint64_t used = bed.NodeMemoryUsed(n);
    balance.Add(static_cast<double>(used));
    total += used;
    busiest = std::max(busiest, used);
  }
  m["mem_total_MB"] = static_cast<double>(bed.TotalMemoryUsed()) / 1e6;
  m["mem_cv"] = balance.cv();
  // The AMFS scheduler node runs the aggregation stages, which replicate
  // everything they read (Table 3).
  const double others = p.nodes > 1 ? static_cast<double>(total - busiest) /
                                          1e6 / (p.nodes - 1)
                                    : 0.0;
  m["sched_node_MB"] = static_cast<double>(busiest) / 1e6;
  m["other_nodes_MB"] = others;
  m["sched_ratio"] = others > 0 ? m["sched_node_MB"] / others : 0.0;
}

// Where a Montage-like population of stripe keys (400 files x 8 stripes)
// lands on `nodes` servers, and the share that moves when one more joins.
void RunDistribution(const CellParams& p, CellResult& out) {
  const auto make = [&p](std::uint32_t servers) {
    // 160 ring points per server, as the MemFS client builds its ring.
    return p.use_ketama ? hash::MakeKetama(servers, 160, p.hash)
                        : hash::MakeModulo(servers, p.hash);
  };
  const auto before = make(p.nodes);
  const auto after = make(p.nodes + 1);
  std::vector<double> load(p.nodes, 0);
  std::uint64_t keys = 0;
  std::uint64_t moved = 0;
  for (int f = 0; f < 400; ++f) {
    for (int s = 0; s < 8; ++s) {
      const std::string key = "/montage6/proj/p_" + std::to_string(10000 + f) +
                              ".fits#" + std::to_string(s);
      ++load[before->ServerFor(key)];
      moved += before->ServerFor(key) != after->ServerFor(key);
      ++keys;
    }
  }
  RunningStats balance;
  for (double l : load) balance.Add(l);
  out.metrics["key_cv"] = balance.cv();
  out.metrics["remap_pct"] =
      100.0 * static_cast<double>(moved) / static_cast<double>(keys);
}

bool IsAggregateStage(std::string_view stage) {
  return stage == "mImgTbl" || stage == "mConcatFit" || stage == "mBgModel" ||
         stage == "mAdd" || stage == "merge";
}

// Table 2's data volumes, read off the generator at full scale.
void RunInventory(const CellParams& p, CellResult& out) {
  const mtc::Workflow wf = BuildWorkload(p);
  double input = 0;
  double runtime = 0;
  std::uint64_t smallest = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t largest = 0;
  for (const auto& task : wf.tasks) {
    const std::string_view stage = wf.StageName(task);
    for (const mtc::FileId output : wf.Outputs(task)) {
      const std::uint64_t size = wf.files[output].size;
      (stage == "stage_in" ? input : runtime) +=
          static_cast<double>(size) / 1e9;
      // The paper's "File Size" column describes the per-task intermediate
      // files, not the global aggregation products.
      if (stage != "stage_in" && !IsAggregateStage(stage)) {
        smallest = std::min(smallest, size);
        largest = std::max(largest, size);
      }
    }
  }
  out.metrics["tasks"] = static_cast<double>(wf.tasks.size());
  out.metrics["input_GB"] = input;
  out.metrics["runtime_GB"] = runtime;
  out.metrics["min_file_MB"] = static_cast<double>(smallest) / 1e6;
  out.metrics["max_file_MB"] = static_cast<double>(largest) / 1e6;
}

// --- chaos cells: the round trip of src/workloads/chaos.h ---------------

// `files` per node, written round robin from every node.
workloads::Wave ChaosWave(const CellParams& p, sim::SimTime spacing,
                          std::string prefix, std::uint64_t seed_base) {
  return {p.files * p.nodes, p.file_size, spacing, std::move(prefix),
          seed_base, p.nodes};
}

std::vector<sim::FaultEvent> FaultSchedule(const CellParams& p) {
  if (p.faults == Faults::kScripted) return workloads::ScriptedChaosSchedule();
  if (p.faults != Faults::kGenerated) return {};
  sim::FaultScheduleConfig generated;
  generated.seed = 1;
  generated.servers = generated.nodes = p.nodes;
  generated.horizon = units::Millis(90);
  generated.crashes = 3;
  generated.slow_episodes = 2;
  generated.link_faults = 2;
  return sim::GenerateFaultSchedule(generated);
}

// One wave under the cell's fault schedule, then read back; the write span
// runs from the start, the verify span from its end. A migration-victim
// cell instead writes 1 ms apart while a standby node joins at 4 ms, and
// the victim (a source server, or the joiner itself when victim == nodes)
// crashes at 5 ms, right after the first handoff sweep begins, and restarts
// with its data at 13 ms. The resumed sweeps must be idempotent over what
// the crashed attempt copied; a join that does not commit fails the cell.
void RunFaultChaos(const CellParams& p, CellResult& out) {
  const bool join = p.migration_victim.has_value();
  workloads::TestbedConfig config = BedConfig(p);
  config.kv_policy = workloads::ChaosPolicy();
  config.standby_nodes = join ? 1 : 0;
  config.elastic = join;
  workloads::Testbed bed(p.fs, config);
  sim::Simulation& sim = bed.simulation();
  sim::FaultInjector injector(sim, bed.fault_hooks());
  injector.ScheduleAll(FaultSchedule(p));

  const workloads::Wave wave =
      join ? ChaosWave(p, units::Millis(1), "/mig_", 3000)
           : ChaosWave(p, units::Millis(3), "/chaos_", 1000);
  workloads::WaveResult files;
  workloads::LaunchWave(sim, bed.vfs(), wave, files);
  workloads::TransitionReport report;
  if (join) {
    workloads::RunTransitions(sim, *bed.membership(), *bed.migrator(),
                              {{workloads::Transition::kJoin, p.nodes,
                                units::Millis(4), units::Millis(1)}},
                              report);
    injector.Schedule({.kind = sim::FaultKind::kServerCrash,
                       .start = units::Millis(5), .duration = units::Millis(8),
                       .server = *p.migration_victim});
  }
  sim.Run();
  const sim::SimTime write_end = sim.now();
  workloads::VerifyWave(bed.vfs(), wave, files);
  sim.Run();

  const kv::KvClusterStats kv = bed.storage()->stats();
  const fs::MemFsStats& memfs = bed.memfs()->stats();
  auto& m = out.metrics;
  m["files"] = wave.files;
  m["writes_ok"] = files.writes_ok();
  m["reads_intact"] = files.Count(workloads::Verdict::kIntact);
  m["write_span_ms"] = static_cast<double>(write_end) / 1e6;
  m["verify_span_ms"] = static_cast<double>(sim.now() - write_end) / 1e6;
  m["retries"] = static_cast<double>(kv.retries);
  m["deadline_exceeded"] = static_cast<double>(kv.deadline_exceeded);
  m["breaker_opens"] = static_cast<double>(kv.breaker_opens);
  m["fast_fails"] = static_cast<double>(kv.breaker_fast_fails);
  m["degraded_writes"] = static_cast<double>(memfs.degraded_writes);
  m["failover_reads"] = static_cast<double>(memfs.replica_failovers);
  m["failover_writes"] = static_cast<double>(memfs.write_failovers);
  m["read_repairs"] = static_cast<double>(memfs.read_repairs);
  m["dropped_msgs"] = static_cast<double>(bed.network().dropped_messages());
  m["fault_events"] = static_cast<double>(injector.stats().total_events());
  if (!join) return;
  if (!report.committed()) {
    out.status = status::Unavailable("the join of node " +
                                     std::to_string(p.nodes) +
                                     " did not commit");
  }
  const kv::MigratorProgress& progress = bed.migrator()->progress();
  m["failed_chunks"] = static_cast<double>(progress.failed_chunks);
  m["join_keys_moved"] = static_cast<double>(progress.keys_moved);
  m["join_makespan_ms"] = static_cast<double>(report.steps[0].makespan) / 1e6;
}

// Envelope writes, then server 3 dies with no fault schedule and every file
// is read back in turn. A read that finds the dead server without a replica
// loses the file, so the cell counts readable files, not a failed status.
void RunSurvival(const CellParams& p, CellResult& out) {
  workloads::Testbed bed(p.fs, BedConfig(p));
  workloads::EnvelopeBench bench(bed.simulation(), bed.vfs(), EnvelopeOf(p),
                                 bed.amfs());
  out.status = bench.RunWrite().status;
  bed.storage()->SetServerDown(3, true);

  std::uint32_t readable = 0;
  for (std::uint32_t node = 0; node < p.nodes; ++node) {
    for (std::uint32_t proc = 0; proc < p.procs; ++proc) {
      for (std::uint32_t f = 0; f < p.files; ++f) {
        const std::string path = "/env/d_n" + std::to_string(node) + "_p" +
                                 std::to_string(proc) + "_f" +
                                 std::to_string(f);
        workloads::Verdict verdict = workloads::Verdict::kUnread;
        workloads::VerifyChaosFile(bed.vfs(), nullptr, 0, path, p.file_size,
                                   mtc::FileSeed(path), verdict);
        bed.simulation().Run();
        readable += verdict == workloads::Verdict::kIntact;
      }
    }
  }
  out.metrics["files"] = p.nodes * p.procs * p.files;
  out.metrics["readable"] = readable;
  out.metrics["failover_reads"] =
      static_cast<double>(bed.memfs()->stats().replica_failovers);
}

// Max over mean: 1 when the values are equal, 0 when they sum to 0.
double MaxOverMean(const std::vector<double>& values) {
  double max = 0;
  double sum = 0;
  for (const double value : values) {
    max = std::max(max, value);
    sum += value;
  }
  return sum > 0 ? max / (sum / static_cast<double>(values.size())) : 0.0;
}

// A corpus wave, then a standby node joins under a second wave and server 2
// drains under a third; every file of every wave is read back at the end.
// The epoch-pin arm grows by a ring epoch and "drains" by marking the server
// left, so no data moves either way. A migrate-arm transition that does not
// commit fails the cell.
void RunElastic(const CellParams& p, CellResult& out) {
  constexpr std::uint32_t kDrained = 2;
  const bool migrate = p.elastic == ElasticArm::kMigrate;
  const std::uint32_t joiner = p.nodes;
  workloads::TestbedConfig config = BedConfig(p);
  config.standby_nodes = 1;
  config.elastic = migrate;
  workloads::Testbed bed(p.fs, config);
  sim::Simulation& sim = bed.simulation();

  std::vector<std::uint8_t> live(p.nodes + 1, 1);
  live[joiner] = 0;  // standby: empty until it joins
  // The balance of kv memory across the live servers.
  const auto skew = [&bed, &live] {
    const kv::KvCluster& storage = *bed.storage();
    std::vector<double> used;
    for (std::uint32_t s = 0; s < storage.server_count(); ++s) {
      if (s >= live.size() || live[s] != 0) {
        used.push_back(static_cast<double>(storage.server(s).memory_used()));
      }
    }
    return MaxOverMean(used);
  };
  std::vector<workloads::Wave> waves;
  for (std::uint64_t w = 0; w < 3; ++w) {
    waves.push_back(ChaosWave(p, units::Millis(1),
                              "/w" + std::to_string(w) + "_", 1000 * w));
  }
  workloads::WaveResult files[3];
  auto& m = out.metrics;

  workloads::LaunchWave(sim, bed.vfs(), waves[0], files[0]);
  sim.Run();
  m["corpus_skew"] = skew();

  // One transition while `wave` is in flight, driven to completion.
  const auto transition = [&](std::string_view phase, int wave,
                              workloads::Transition kind,
                              std::uint32_t server) {
    const std::string at = std::string(phase) + "_";
    const kv::MigratorProgress before =
        migrate ? bed.migrator()->progress() : kv::MigratorProgress{};
    workloads::LaunchWave(sim, bed.vfs(), waves[wave], files[wave]);
    workloads::TransitionReport report;
    if (migrate) {
      workloads::RunTransitions(sim, *bed.membership(), *bed.migrator(),
                                {{kind, server, units::Millis(4)}}, report);
    } else if (kind == workloads::Transition::kJoin) {
      (void)bed.memfs()->AddStorageServer(server);
    } else {
      bed.storage()->SetServerLeft(server);
    }
    sim.Run();
    if (migrate && !report.committed() && out.status.ok()) {
      out.status = status::Unavailable(std::string(phase) + " of server " +
                                       std::to_string(server) +
                                       " did not commit");
    }
    const kv::MigratorProgress after =
        migrate ? bed.migrator()->progress() : kv::MigratorProgress{};
    live[server] = kind == workloads::Transition::kJoin;
    m[at + "makespan_ms"] =
        migrate ? static_cast<double>(report.steps[0].makespan) / 1e6 : 0.0;
    m[at + "MiB_moved"] =
        static_cast<double>(after.bytes_moved - before.bytes_moved) /
        static_cast<double>(MiB(1));
    m[at + "keys_moved"] =
        static_cast<double>(after.keys_moved - before.keys_moved);
    m[at + "skew"] = skew();
    m[at + "writes_ok"] = files[wave].writes_ok();
  };
  transition("join", 1, workloads::Transition::kJoin, joiner);
  transition("drain", 2, workloads::Transition::kDrain, kDrained);

  for (int w = 0; w < 3; ++w) {
    workloads::VerifyWave(bed.vfs(), waves[w], files[w]);
  }
  sim.Run();
  double intact = 0;
  double permanent = 0;
  for (const workloads::WaveResult& wave : files) {
    intact += wave.Count(workloads::Verdict::kIntact);
    permanent += wave.Count(workloads::Verdict::kUnavailablePermanent);
  }
  m["files"] = 3.0 * waves[0].files;
  m["reads_intact"] = intact;
  m["permanent_fails"] = permanent;
}

void RunChaos(const CellParams& p, CellResult& out) {
  if (p.elastic != ElasticArm::kNone) {
    RunElastic(p, out);
  } else if (p.faults == Faults::kKillServer) {
    RunSurvival(p, out);
  } else {
    RunFaultChaos(p, out);
  }
}

// --- namespace cells: the mdtest-style sweep beyond Fig. 6 ---------------

constexpr std::uint32_t kPageLimit = 256;

// A listing entry's and a listing response's serialized size, as the wire
// accounting charges them: a fixed attr overhead plus the name.
std::uint64_t EntryWireBytes(const fs::FileInfo& info) {
  return info.name.size() + 16;
}

// One phase's ops: how many succeeded; the cell keeps the first failure.
struct PhaseOps {
  std::uint32_t ok = 0;
  Status& failed;
  void Note(const Status& status) {
    if (status.ok()) {
      ++ok;
    } else if (failed.ok()) {
      failed = status;
    }
  }
};

// mdtest's loop: process `proc` of `procs` takes every procs-th path in
// turn, one op at a time. The sweep runs one process per node in parallel.
enum class SweepOp : std::uint8_t { kMkdir, kCreate, kStat, kUnlink };

sim::Task RunSweepProc(fs::Vfs& vfs, SweepOp op,
                       const std::vector<std::string>& paths,
                       std::uint32_t proc, std::uint32_t procs,
                       PhaseOps& ops) {
  const fs::VfsContext ctx{proc, 0};
  for (std::size_t i = proc; i < paths.size(); i += procs) {
    if (op == SweepOp::kMkdir) {
      ops.Note(co_await vfs.Mkdir(ctx, paths[i]));
    } else if (op == SweepOp::kStat) {
      ops.Note((co_await vfs.Stat(ctx, paths[i])).status());
    } else if (op == SweepOp::kUnlink) {
      ops.Note(co_await vfs.Unlink(ctx, paths[i]));
    } else if (auto handle = co_await vfs.Create(ctx, paths[i]);
               !handle.ok()) {
      ops.Note(handle.status());
    } else {
      ops.Note(co_await vfs.Close(ctx, handle.value()));
    }
  }
}

// What listings saw: entries, responses, the largest single response, and
// the one response that would have carried every entry.
struct Listing {
  std::uint64_t entries = 0;
  std::uint64_t responses = 0;
  std::uint64_t max_rpc = 0;
  std::uint64_t one_get = 16;
};

// Lists `dir` in bounded pages under sharded metadata, or as the whole
// directory log in one GET under append_log.
sim::Task RunListDir(fs::Vfs& vfs, std::string dir, std::uint32_t node,
                     bool paged, Listing& out, PhaseOps& ops) {
  const fs::VfsContext ctx{node, 0};
  fs::DirCursor cursor;
  for (bool more = true; more;) {
    std::vector<fs::FileInfo> entries;
    if (paged) {
      auto page = co_await vfs.ReadDirPage(ctx, dir, cursor, kPageLimit);
      ops.Note(page.status());
      if (!page.ok()) co_return;
      entries = std::move(page->entries);
      cursor = page->next;
      more = page->more;
    } else {
      auto listing = co_await vfs.ReadDir(ctx, dir);
      ops.Note(listing.status());
      if (!listing.ok()) co_return;
      entries = std::move(listing).value();
      more = false;
    }
    std::uint64_t rpc = 16;
    for (const fs::FileInfo& info : entries) rpc += EntryWireBytes(info);
    out.max_rpc = std::max(out.max_rpc, rpc);
    out.one_get += rpc - 16;
    out.entries += entries.size();
    ++out.responses;
  }
}

// mkdir, then create, stat, list and unlink `files` entries per node in one
// hot directory or spread over 64; each phase's rate counts its successful
// ops over its simulated seconds. Any failed op fails the cell.
void RunSweep(const CellParams& p, CellResult& out) {
  MetricsRegistry metrics;
  workloads::TestbedConfig config = BedConfig(p);
  config.metrics = &metrics;
  workloads::Testbed bed(p.fs, config);
  sim::Simulation& sim = bed.simulation();
  fs::Vfs& vfs = bed.vfs();
  const bool sharded = p.metadata == meta::MetadataMode::kSharded;

  std::vector<std::string> dirs;
  if (p.dir_shape == DirShape::kHot) {
    dirs.push_back("/hot");
  } else {
    for (std::uint32_t d = 0; d < 64; ++d) {
      dirs.push_back("/d" + std::to_string(d));
    }
  }
  const std::uint32_t total = p.files * p.nodes;
  std::vector<std::string> paths;
  paths.reserve(total);
  for (std::uint32_t i = 0; i < total; ++i) {
    paths.push_back(dirs[i % dirs.size()] + "/f" + std::to_string(i));
  }

  PhaseOps mkdirs{0, out.status};
  RunSweepProc(vfs, SweepOp::kMkdir, dirs, 0, 1, mkdirs);
  sim.Run();
  // Runs `fire`'s ops to completion and returns their simulated seconds.
  const auto phase = [&sim](auto&& fire) {
    const sim::SimTime start = sim.now();
    fire();
    sim.Run();
    return units::ToSeconds(sim.now() - start);
  };
  const auto sweep = [&](SweepOp op) {
    PhaseOps ops{0, out.status};
    const double secs = phase([&] {
      for (std::uint32_t proc = 0; proc < p.nodes; ++proc) {
        RunSweepProc(vfs, op, paths, proc, p.nodes, ops);
      }
    });
    return secs > 0 ? ops.ok / secs : 0;
  };

  auto& m = out.metrics;
  m["create_ops"] = sweep(SweepOp::kCreate);
  if (sharded) {
    // A hot directory's balance across token ranges, from the per-shard
    // dentry gauges the metadata client keeps.
    std::vector<double> dentries;
    for (std::uint32_t s = 0; s < bed.config().memfs.meta.dir_shards; ++s) {
      dentries.push_back(static_cast<double>(
          metrics.GaugeValue(InstanceGaugeName("meta.dentries", s))));
    }
    m["dentry_skew"] = MaxOverMean(dentries);
  }
  m["stat_ops"] = sweep(SweepOp::kStat);

  PhaseOps lists{0, out.status};
  Listing listing;
  const double secs = phase([&] {
    for (std::size_t d = 0; d < dirs.size(); ++d) {
      RunListDir(vfs, dirs[d], static_cast<std::uint32_t>(d) % p.nodes,
                 sharded, listing, lists);
    }
  });
  if (listing.entries < total) {
    lists.Note(status::NotFound("listed " + std::to_string(listing.entries) +
                                " of " + std::to_string(total) + " entries"));
  }
  m["readdir_ent_s"] =
      secs > 0 ? static_cast<double>(listing.entries) / secs : 0;
  m["max_list_rpc_B"] = static_cast<double>(listing.max_rpc);
  m["unlink_ops"] = sweep(SweepOp::kUnlink);
}

// A `bulk_entries` directory bulk-loaded into sharded metadata, paged
// through on node 0, then the stat of the entry in its middle. The
// append-log arm would ship the whole directory in one GET (the one-GET
// equivalent); the wire bytes are the paging's alone.
void RunBigDir(const CellParams& p, CellResult& out) {
  workloads::Testbed bed(p.fs, BedConfig(p));
  bed.memfs()->meta_client()->BulkLoadDirectory("/big", "f", p.bulk_entries);
  sim::Simulation& sim = bed.simulation();
  const sim::SimTime start = sim.now();
  const std::uint64_t wire_before = bed.network().total_bytes();
  Listing listing;
  PhaseOps ops{0, out.status};
  RunListDir(bed.vfs(), "/big", 0, /*paged=*/true, listing, ops);
  sim.Run();
  const std::uint64_t wire = bed.network().total_bytes() - wire_before;
  const std::vector<std::string> middle = {
      "/big/f" + std::to_string(p.bulk_entries / 2)};
  RunSweepProc(bed.vfs(), SweepOp::kStat, middle, 0, 1, ops);
  sim.Run();
  const double secs = units::ToSeconds(sim.now() - start);
  auto& m = out.metrics;
  m["entries_listed"] = static_cast<double>(listing.entries);
  m["pages"] = static_cast<double>(listing.responses);
  m["max_list_rpc_B"] = static_cast<double>(listing.max_rpc);
  m["one_get_B"] = static_cast<double>(listing.one_get);
  m["list_wire_B"] = static_cast<double>(wire);
  m["readdir_ent_s"] =
      secs > 0 ? static_cast<double>(listing.entries) / secs : 0;
}

void RunNamespace(const CellParams& p, CellResult& out) {
  if (p.bulk_entries != 0) {
    RunBigDir(p, out);
  } else {
    RunSweep(p, out);
  }
}

std::string Size(std::uint64_t bytes) {
  if (bytes % MiB(1) == 0) return std::to_string(bytes / MiB(1)) + "MiB";
  if (bytes % KiB(1) == 0) return std::to_string(bytes / KiB(1)) + "KiB";
  return std::to_string(bytes) + "B";
}

// --- the table ----------------------------------------------------------

constexpr MetricSpec kMetrics[] = {
    {"write_MBps", "write MB/s", 1, 0.01},
    {"read11_MBps", "1-1 read MB/s", 1, 0.01},
    {"remote11_MBps", "remote 1-1 read MB/s", 1, 0.01},
    {"readn1_MBps", "N-1 read MB/s", 1, 0.01},
    {"remote_penalty", "local/remote 1-1", 2, 0.01},
    {"write_MBps_node", "write MB/s/node", 1, 0.01},
    {"read11_MBps_node", "read MB/s/node", 1, 0.01},
    {"write_ops", "write op/s", 0, 0.01},
    {"read11_ops", "1-1 read op/s", 0, 0.01},
    {"readn1_ops", "N-1 read op/s", 0, 0.01},
    {"create_ops", "create op/s", 0, 0.01},
    {"open_ops", "open op/s", 0, 0.01},
    {"makespan_s", "makespan s", 2, 0.01},
    {"mProjectPP_s", "mProjectPP s", 2, 0.01},
    {"mDiffFit_s", "mDiffFit s", 2, 0.01},
    {"mBackground_s", "mBackground s", 2, 0.01},
    {"formatdb_s", "formatdb s", 2, 0.01},
    {"blastall_s", "blastall s", 2, 0.01},
    {"mProjectPP_MBps_node", "mProjectPP MB/s/node", 1, 0.01},
    {"mDiffFit_MBps_node", "mDiffFit MB/s/node", 1, 0.01},
    {"mBackground_MBps_node", "mBackground MB/s/node", 1, 0.01},
    {"formatdb_MBps_node", "formatdb MB/s/node", 1, 0.01},
    {"blastall_MBps_node", "blastall MB/s/node", 1, 0.01},
    {"mem_total_MB", "total MB", 1, 0.01},
    {"mem_cv", "balance cv", 3, 0.01},
    {"sched_node_MB", "scheduler node MB", 1, 0.01},
    {"other_nodes_MB", "other nodes avg MB", 1, 0.01},
    {"sched_ratio", "ratio", 1, 0.01},
    {"app_MBps_node", "app MB/s/node", 1, 0.01},
    {"system_MBps_node", "system MB/s/node", 1, 0.01},
    {"system_ratio", "system/app", 2, 0.01},
    {"tasks", "tasks", 0, 0.001},
    {"input_GB", "input GB", 1, 0.001},
    {"runtime_GB", "runtime data GB", 1, 0.001},
    {"min_file_MB", "smallest file MB", 1, 0.001},
    {"max_file_MB", "largest file MB", 1, 0.001},
    {"read11_hit_rate", "1-1 read hit rate", 3, 0.01},
    {"write_s", "write s", 4, 0.01},
    {"read11_s", "1-1 read s", 4, 0.01},
    {"create_s", "create s", 4, 0.01},
    {"open_s", "open s", 4, 0.01},
    {"total_s", "total s", 4, 0.01},
    {"kv_rpcs", "kv RPCs", 0, 0.01},
    {"ops_per_rpc", "ops/RPC", 2, 0.01},
    {"max_batch", "max batch", 0, 0.01},
    {"stored_MB", "stored MB", 1, 0.01},
    {"write_wire_MB", "write wire MB", 1, 0.01},
    {"key_cv", "key balance cv", 3, 0.001},
    {"remap_pct", "remapped % (+1 server)", 1, 0.001},
    // Counts are exact: a run that loses one file, read, entry or retry is
    // a different run.
    {"files", "files", 0, 0},
    {"writes_ok", "writes ok", 0, 0},
    {"reads_intact", "reads intact", 0, 0},
    {"write_span_ms", "write span ms", 2, 0.01},
    {"verify_span_ms", "verify span ms", 2, 0.01},
    {"retries", "retries", 0, 0},
    {"deadline_exceeded", "deadline exc", 0, 0},
    {"breaker_opens", "breaker opens", 0, 0},
    {"fast_fails", "fast fails", 0, 0},
    {"degraded_writes", "degraded wr", 0, 0},
    {"failover_reads", "failover rd", 0, 0},
    {"failover_writes", "failover wr", 0, 0},
    {"read_repairs", "read repairs", 0, 0},
    {"dropped_msgs", "dropped msgs", 0, 0},
    {"fault_events", "fault events", 0, 0},
    {"failed_chunks", "failed chunks", 0, 0},
    {"readable", "files readable", 0, 0},
    {"corpus_skew", "corpus skew", 3, 0.01},
    {"join_makespan_ms", "join makespan ms", 2, 0.01},
    {"join_MiB_moved", "join MiB moved", 1, 0.01},
    {"join_keys_moved", "join keys moved", 0, 0},
    {"join_skew", "skew after join", 3, 0.01},
    {"join_writes_ok", "wave writes ok", 0, 0},
    {"drain_makespan_ms", "drain makespan ms", 2, 0.01},
    {"drain_MiB_moved", "drain MiB moved", 1, 0.01},
    {"drain_keys_moved", "drain keys moved", 0, 0},
    {"drain_skew", "skew after drain", 3, 0.01},
    {"drain_writes_ok", "wave writes ok", 0, 0},
    {"permanent_fails", "permanent fails", 0, 0},
    {"stat_ops", "stat op/s", 0, 0.01},
    {"readdir_ent_s", "readdir entries/s", 0, 0.01},
    {"unlink_ops", "unlink op/s", 0, 0.01},
    {"max_list_rpc_B", "max list RPC B", 0, 0},
    {"dentry_skew", "dentry skew", 3, 0.01},
    {"entries_listed", "entries listed", 0, 0},
    {"pages", "pages", 0, 0},
    {"one_get_B", "one-GET equiv B", 0, 0},
    {"list_wire_B", "paging wire B", 0, 0},
};

std::string Label(std::uint32_t count, std::string_view unit,
                  std::optional<FsKind> fs = std::nullopt) {
  std::string label = std::to_string(count) + " " + std::string(unit);
  if (fs) label += " " + std::string(workloads::ToString(*fs));
  return label;
}

CellParams Envelope(FsKind fs, std::uint32_t nodes, std::uint64_t file_size,
                    std::uint32_t files, std::uint64_t io_block,
                    std::uint32_t meta_files) {
  CellParams c;
  c.fs = fs;
  c.nodes = nodes;
  c.file_size = file_size;
  c.files = files;
  c.io_block = io_block;
  c.meta_files = meta_files;
  return c;
}

CellParams Flow(Workload workload, FsKind fs, std::uint32_t nodes,
                std::uint32_t cores, Fabric fabric = Fabric::kDas4Ipoib) {
  CellParams c;
  c.kind = CellKind::kWorkflow;
  c.workload = workload;
  c.fs = fs;
  c.fabric = fabric;
  c.nodes = nodes;
  c.procs = cores;
  return c;
}

// MemFS on EC2 with one FUSE mountpoint per process (the Fig. 10b fix).
CellParams Ec2MemFs(Workload workload, std::uint32_t nodes,
                    std::uint32_t cores) {
  CellParams c =
      Flow(workload, FsKind::kMemFs, nodes, cores, Fabric::kEc2TenGbE);
  c.mounts = cores;
  return c;
}

std::vector<Figure> BuildFigures() {
  using Metrics = std::vector<std::string>;
  const FsKind kMem = FsKind::kMemFs;
  const FsKind kAm = FsKind::kAmfs;
  const Metrics montage = {"mProjectPP_s", "mDiffFit_s", "mBackground_s",
                           "makespan_s"};
  const Metrics montage_bw = {"mProjectPP_s",         "mDiffFit_s",
                              "mBackground_s",        "mProjectPP_MBps_node",
                              "mDiffFit_MBps_node",   "mBackground_MBps_node"};
  const Metrics blast_bw = {"formatdb_s", "blastall_s", "formatdb_MBps_node",
                            "blastall_MBps_node"};
  std::vector<Figure> figs;
  const auto add = [&figs](std::string id, std::string title, Metrics metrics) {
    figs.push_back({std::move(id), std::move(title), std::move(metrics), {}});
  };
  const auto row = [&figs](std::string label, const CellParams& cell,
                           std::map<std::string, double> paper = {}) {
    figs.back().rows.push_back({std::move(label), cell, std::move(paper)});
  };

  add("fig03a", "Fig. 3a: stripe size vs MemFS bandwidth (8 nodes, 16 MiB "
      "files, per-node MB/s)", {"write_MBps_node", "read11_MBps_node"});
  for (std::uint32_t kb : {128, 256, 512, 1024}) {
    CellParams c = Envelope(kMem, 8, MiB(16), 2, MiB(1), 32);
    c.stripe = KiB(kb);
    // A shallow flush pipeline isolates the per-stripe round trip; reads
    // keep the default prefetcher, so they stay stripe-size independent.
    c.io_threads = 1;
    row(Label(kb, "KB stripes"), c);
  }
  add("fig03b", "Fig. 3b: buffering/prefetching threads vs MemFS bandwidth "
      "(8 nodes, 16 MiB files, per-node MB/s; 0 = none)",
      {"write_MBps_node", "read11_MBps_node"});
  for (std::uint32_t threads = 0; threads <= 9; ++threads) {
    CellParams c = Envelope(kMem, 8, MiB(16), 2, KiB(512), 32);
    c.io_threads = threads;
    c.read_threads = threads;
    row(Label(threads, "threads"), c);
  }

  // Figs. 4 and 5 report bandwidth and throughput of the same runs; the
  // metadata phases are Fig. 6's.
  const struct {
    const char* panel;
    const char* label;
    std::uint64_t file_size;
    std::uint32_t files;
    std::uint64_t io_block;  // 0 = whole file (capped at 1 MiB)
  } plans[] = {{"a", "1 KB", KiB(1), 64, 0},
               {"b", "1 MB", MiB(1), 8, 0},
               {"c", "128 MB", MiB(128), 1, MiB(1)}};
  for (const bool ops : {false, true}) {
    for (const auto& plan : plans) {
      add(std::string(ops ? "fig05" : "fig04") + plan.panel,
          std::string("Fig. ") + (ops ? "5" : "4") + plan.panel +
              ": MTC envelope " + (ops ? "throughput" : "bandwidth") + ", " +
              plan.label + " files (aggregate)",
          ops ? Metrics{"write_ops", "read11_ops", "readn1_ops"}
              : Metrics{"write_MBps", "read11_MBps", "readn1_MBps"});
      for (std::uint32_t nodes : kNodeSweep) {
        for (FsKind fs : {kMem, kAm}) {
          const CellParams c = Envelope(fs, nodes, plan.file_size, plan.files,
                                        plan.io_block, /*meta_files=*/1);
          row(Label(nodes, "nodes", fs), c);
        }
      }
    }
  }

  add("fig06", "Fig. 6: metadata throughput, 256 files per node",
      {"create_ops", "open_ops"});
  for (std::uint32_t nodes : {4, 8, 16, 32, 64}) {
    for (FsKind fs : {kMem, kAm}) {
      row(Label(nodes, "nodes", fs), Envelope(fs, nodes, KiB(1), 1, 0, 256));
    }
  }

  add("table1", "Table 1: MTC envelope, 64 nodes, 1 MB files",
      {"write_MBps", "read11_MBps", "remote11_MBps", "remote_penalty",
       "readn1_MBps", "create_ops", "open_ops"});
  for (Fabric fabric : {Fabric::kDas4Ipoib, Fabric::kDas4GbE}) {
    const bool ipoib = fabric == Fabric::kDas4Ipoib;
    for (FsKind fs : {kAm, kMem}) {
      CellParams c = Envelope(fs, 64, MiB(1), 8, 0, 64);
      c.fabric = fabric;
      c.remote_read = true;
      std::map<std::string, double> paper;
      if (fs == kAm) paper["remote_penalty"] = ipoib ? 4 : 7;
      if (ipoib) {
        paper["write_MBps"] = fs == kAm ? 16934 : 27403;
        paper["read11_MBps"] = fs == kAm ? 24351 : 29686;
        paper["readn1_MBps"] = fs == kAm ? 1216 : 16053;
      }
      row(std::string(ipoib ? "IPoIB " : "1GbE ") +
              std::string(workloads::ToString(fs)),
          c, std::move(paper));
    }
  }

  add("table2", "Table 2: application descriptions at full generator scale",
      {"tasks", "input_GB", "runtime_GB", "min_file_MB", "max_file_MB"});
  const struct {
    const char* label;
    Workload workload;
    double input, runtime, min_file, max_file;
  } apps[] = {{"Montage 6x6", Workload::kMontage6, 4.9, 50, 1, 4.4},
              {"Montage 12x12", Workload::kMontage12, 20, 250, 1, 4.4},
              {"Montage 16x16", Workload::kMontage16, 34, 450, 1, 4.4},
              {"BLAST (DAS4)", Workload::kBlastDas4, 57, 200, 10, 120},
              {"BLAST (EC2)", Workload::kBlastEc2, 57, 200, 5, 60}};
  for (const auto& app : apps) {
    CellParams c;
    c.kind = CellKind::kInventory;
    c.workload = app.workload;
    row(app.label, c,
        {{"input_GB", app.input}, {"runtime_GB", app.runtime},
         {"min_file_MB", app.min_file}, {"max_file_MB", app.max_file}});
  }

  add("fig07a", "Fig. 7a: Montage 6 vertical scalability, 64 nodes", montage);
  for (std::uint32_t cores : {1, 2, 4, 8}) {
    for (FsKind fs : {kMem, kAm}) {
      row(Label(64 * cores, "cores", fs),
          Flow(Workload::kMontage6, fs, 64, cores));
    }
  }
  add("fig07b", "Fig. 7b: Montage 12 vertical scalability on MemFS, 64 nodes "
      "(AMFS cannot store it)", montage);
  for (std::uint32_t cores : {2, 4, 8}) {
    row(Label(64 * cores, "cores"),
        Flow(Workload::kMontage12, kMem, 64, cores));
  }
  add("fig07c", "Fig. 7c: BLAST vertical scalability, 64 nodes",
      {"formatdb_s", "blastall_s", "makespan_s"});
  for (std::uint32_t cores : {1, 2, 4, 8}) {
    for (FsKind fs : {kMem, kAm}) {
      row(Label(64 * cores, "cores", fs),
          Flow(Workload::kBlastDas4, fs, 64, cores));
    }
  }

  add("fig08a", "Fig. 8a: Montage 6 horizontal scalability (_N = cores per "
      "node)", {"makespan_s"});
  for (std::uint32_t nodes : kNodeSweep) {
    for (auto [fs, cores] : {std::pair{kAm, 8u}, std::pair{kAm, 4u},
                             std::pair{kMem, 8u}}) {
      row(Label(nodes, "nodes", fs) + "_" + std::to_string(cores),
          Flow(Workload::kMontage6, fs, nodes, cores));
    }
  }
  add("fig08b", "Fig. 8b: Montage 12 horizontal scalability on MemFS, 8 cores "
      "per node", montage);
  for (std::uint32_t nodes : {16, 32, 64}) {
    row(Label(nodes, "nodes"), Flow(Workload::kMontage12, kMem, nodes, 8));
  }
  add("fig08c", "Fig. 8c: BLAST horizontal scalability, 8 cores per node",
      {"makespan_s"});
  for (std::uint32_t nodes : kNodeSweep) {
    for (FsKind fs : {kAm, kMem}) {
      row(Label(nodes, "nodes", fs), Flow(Workload::kBlastDas4, fs, nodes, 8));
    }
  }

  add("fig09", "Fig. 9: aggregate memory after Montage 6 (MemFS 8 cores per "
      "node, AMFS 4); balance = cv of per-node bytes",
      {"mem_total_MB", "mem_cv"});
  for (std::uint32_t nodes : kNodeSweep) {
    for (auto [fs, cores] : {std::pair{kMem, 8u}, std::pair{kAm, 4u}}) {
      row(Label(nodes, "nodes", fs),
          Flow(Workload::kMontage6, fs, nodes, cores));
    }
  }
  add("table3", "Table 3: AMFS per-node memory after Montage 6, 4 cores per "
      "node", {"sched_node_MB", "other_nodes_MB", "sched_ratio"});
  const double paper_ratio[] = {2.0, 3.1, 5.3, 8.9};
  for (std::size_t i = 0; i < std::size(kNodeSweep); ++i) {
    row(Label(kNodeSweep[i], "nodes"),
        Flow(Workload::kMontage6, kAm, kNodeSweep[i], 4),
        {{"sched_ratio", paper_ratio[i]}});
  }

  for (const bool per_process : {false, true}) {
    add(per_process ? "fig10b" : "fig10a",
        std::string("Fig. 10") + (per_process ? "b" : "a") +
            ": Montage 6 on 4 EC2 nodes, " +
            (per_process ? "one mountpoint per process"
                         : "one FUSE mountpoint"),
        montage);
    for (std::uint32_t cores : {4, 8, 16, 32}) {
      CellParams c = Ec2MemFs(Workload::kMontage6, 4, cores);
      c.mounts = per_process ? cores : 1;
      c.io_block = KiB(4);
      c.contended_fuse = true;
      row(Label(4 * cores, "cores"), c);
    }
  }
  add("fig11", "Fig. 11: Montage 6 on 4 EC2 nodes, MemFS (mount per process) "
      "vs AMFS (one mount, at most 8 processes per node)", {"makespan_s"});
  for (std::uint32_t cores : {4, 8, 16, 32}) {
    row(Label(cores, "cores/node", kMem),
        Ec2MemFs(Workload::kMontage6, 4, cores));
    if (cores <= 8) {
      row(Label(cores, "cores/node", kAm),
          Flow(Workload::kMontage6, kAm, 4, cores, Fabric::kEc2TenGbE));
    }
  }

  add("fig12", "Figs. 12a/b: Montage 16 on 32 EC2 nodes, MemFS", montage_bw);
  for (std::uint32_t cores : {4, 8, 16, 32}) {
    row(Label(32 * cores, "cores"), Ec2MemFs(Workload::kMontage16, 32, cores));
  }
  add("fig13", "Figs. 13a/b: BLAST (1024 fragments) on 32 EC2 nodes, MemFS",
      blast_bw);
  for (std::uint32_t cores : {4, 8, 16, 32}) {
    row(Label(32 * cores, "cores"), Ec2MemFs(Workload::kBlastEc2, 32, cores));
  }
  add("fig14", "Figs. 14a/b: Montage 12 on EC2, 32 cores per node, MemFS",
      montage_bw);
  for (std::uint32_t nodes : {8, 16, 32}) {
    row(Label(nodes, "nodes"), Ec2MemFs(Workload::kMontage12, nodes, 32));
  }
  add("fig15", "Figs. 15a/b: BLAST on EC2, 32 cores per node, MemFS", blast_bw);
  for (std::uint32_t nodes : {8, 16, 32}) {
    row(Label(nodes, "nodes"), Ec2MemFs(Workload::kBlastEc2, nodes, 32));
  }

  for (const bool ec2 : {true, false}) {
    add(ec2 ? "fig16a" : "fig16b",
        std::string("Fig. 16") + (ec2 ? "a: EC2" : "b: DAS4") +
            ", 8 nodes, 4 KB calls on 4 MiB files, mount per process",
        {"app_MBps_node", "system_MBps_node", "system_ratio"});
    for (std::uint32_t procs : {1, 2, 4, 8, 16, 32}) {
      if (!ec2 && procs > 8) break;
      CellParams c = Envelope(kMem, 8, MiB(4), 2, KiB(4), 0);
      c.kind = CellKind::kWire;
      c.fabric = ec2 ? Fabric::kEc2TenGbE : Fabric::kDas4Ipoib;
      c.procs = procs;
      c.mounts = procs;
      row(Label(procs, "procs/node"), c);
    }
  }

  // --- ablations beyond the paper -----------------------------------------

  // The paper's premise: a full-bisection core makes locality unnecessary.
  // Capping the core at 16 NICs / ratio puts MemFS's striped traffic on it,
  // while AMFS's local writes bypass it.
  const std::uint64_t nics = 16 * net::Das4Ipoib(16).nic_bandwidth;
  for (const bool montage : {false, true}) {
    if (montage) {
      add("abl_bisection_montage", "Ablation: fabric oversubscription, "
          "I/O-dominated Montage 6 on 16 nodes x 8 cores", {"makespan_s"});
    } else {
      add("abl_bisection", "Ablation: fabric oversubscription (core = 16 "
          "IPoIB NICs / ratio), 16-node envelope write, 1 MiB files",
          {"write_MBps"});
    }
    for (std::uint32_t ratio : {1, 2, 4, 8, 16}) {
      for (FsKind fs : {kMem, kAm}) {
        CellParams c = montage ? Flow(Workload::kMontage6Io, fs, 16, 8)
                               : Envelope(fs, 16, MiB(1), 4, 0, 16);
        c.fabric_bandwidth = ratio == 1 ? 0 : nics / ratio;
        // Raw write paths: no AMFS Shell job cost per file.
        if (!montage && fs == kAm) c.amfs_shell_jobs = false;
        row(std::to_string(ratio) + ":1 " +
                std::string(workloads::ToString(fs)),
            c);
      }
    }
  }

  // §1-2 and §5: DRAM vs disk-backed strict-POSIX servers under the same
  // striping client, and IPoIB vs native RDMA verbs.
  add("abl_substrate", "Ablation: DRAM (MemFS) vs disk (DiskPFS) servers, "
      "16-node envelope, 1 MiB files", {"write_MBps", "read11_MBps",
                                        "create_ops"});
  for (FsKind fs : {kMem, FsKind::kDiskPfs}) {
    row(std::string(workloads::ToString(fs)),
        Envelope(fs, 16, MiB(1), 4, 0, 16));
  }
  add("abl_substrate_montage", "Ablation: DRAM vs disk servers, small "
      "Montage 6 on 16 nodes x 4 cores", {"makespan_s"});
  for (FsKind fs : {kMem, FsKind::kDiskPfs}) {
    row(std::string(workloads::ToString(fs)),
        Flow(Workload::kMontage6Small, fs, 16, 4));
  }
  // One 16-node, 8 x 1 MiB MemFS envelope is the baseline row of the
  // transport, replication and network-model ablations.
  const CellParams envelope16 = Envelope(kMem, 16, MiB(1), 8, 0, 64);
  add("abl_transport", "Ablation: MemFS over IPoIB vs native RDMA verbs "
      "(§5), 16-node envelope, 1 MiB files",
      {"write_MBps", "read11_MBps", "create_ops", "open_ops"});
  for (Fabric fabric : {Fabric::kDas4Ipoib, Fabric::kRdma}) {
    CellParams c = envelope16;
    c.fabric = fabric;
    row(std::string(workloads::ToString(fabric)), c);
  }

  // The prefetcher's two knobs Fig. 3b leaves fixed: lookahead depth and
  // per-file cache size (the paper's 8 MB).
  const fs::MemFsConfig defaults;
  const CellParams sequential = Envelope(kMem, 8, MiB(16), 2, KiB(64), 0);
  add("abl_prefetch_depth", "Ablation: prefetch depth, 8 nodes, 16 MiB files "
      "read in 64 KiB calls (per-node MB/s)",
      {"read11_MBps_node", "read11_hit_rate"});
  for (std::uint32_t depth : {0, 1, 2, 4, 8, 16}) {
    CellParams c = sequential;
    if (depth != defaults.prefetch_depth) c.prefetch_depth = depth;
    row(Label(depth, "stripes"), c);
  }
  add("abl_prefetch_cache", "Ablation: read cache size at prefetch depth 8, "
      "the same reads", {"read11_MBps_node", "read11_hit_rate"});
  for (std::uint64_t mib : {1, 2, 4, 8, 16}) {
    CellParams c = sequential;
    if (MiB(mib) != defaults.read_cache_bytes) c.read_cache_bytes = MiB(mib);
    row(Label(static_cast<std::uint32_t>(mib), "MiB"), c);
  }

  // §3.2.5's predicted cost of n replicas: n times the stored bytes (after
  // the 1-1 read) and n times the wire bytes of the write phase.
  add("abl_replication", "Ablation: replication factor, 16-node envelope, "
      "8 x 1 MiB files per node",
      {"write_MBps", "read11_MBps", "stored_MB", "write_wire_MB"});
  for (std::uint32_t replicas : {1, 2, 3}) {
    CellParams c = envelope16;
    c.replication = replicas;
    row(Label(replicas, "replicas"), c);
  }

  // §3.2.2's multi-op amortization at saturation: library-mode clients (no
  // FUSE) on kernel-bypass nodes, so the servers are the bottleneck. The
  // kv RPCs and total_s leave out the cell's N-1 read, which this envelope
  // does not measure; max batch is the largest batch of the run.
  CellParams small = Envelope(kMem, 8, KiB(1), 8, 0, 16);
  small.fabric = Fabric::kRdma;
  small.procs = 64;
  small.library_mode = true;
  add("abl_batching", "Ablation: op batching, 1 KiB envelope on 8 RDMA "
      "nodes x 64 library-mode procs",
      {"kv_rpcs", "ops_per_rpc", "max_batch", "write_s", "read11_s",
       "create_s", "open_s", "total_s"});
  for (const bool batching : {false, true}) {
    CellParams c = small;
    c.io_batching = batching;
    row(batching ? "on" : "off", c);
  }
  add("abl_batching_ceiling", "Ablation: per-batch item ceiling, the same "
      "envelope with batching on",
      {"kv_rpcs", "ops_per_rpc", "write_s", "total_s"});
  for (std::uint32_t ops : {1, 2, 4, 8, 16, 32}) {
    CellParams c = small;
    if (ops != io::IoConfig{}.max_batch_ops) c.max_batch_ops = ops;
    row(Label(ops, "ops/batch"), c);
  }

  // The cheap count-based fair share every figure uses vs exact max-min
  // water-filling.
  add("abl_network_model", "Ablation: fair-share vs water-filling network "
      "allocator, 16-node envelope, 1 MiB files",
      {"write_MBps", "read11_MBps", "readn1_MBps"});
  for (workloads::NetModel model :
       {workloads::NetModel::kFairShare, workloads::NetModel::kWaterfill}) {
    CellParams c = envelope16;
    c.net_model = model;
    row(model == workloads::NetModel::kFairShare ? "FairShare" : "Waterfill",
        c);
  }

  // §3.1.2: modulo balances a fixed server set; ketama remaps ~1/N of the
  // keys when one joins.
  add("abl_distribution", "Ablation: modulo vs ketama placement of 3200 "
      "stripe keys on 32 servers", {"key_cv", "remap_pct"});
  for (const bool ketama : {false, true}) {
    for (hash::HashKind kind :
         {hash::HashKind::kFnv1a64, hash::HashKind::kMurmur3_64,
          hash::HashKind::kJenkinsLookup3, hash::HashKind::kCrc32c}) {
      CellParams c;
      c.kind = CellKind::kDistribution;
      c.nodes = 32;
      c.use_ketama = ketama;
      c.hash = kind;
      row(std::string(ketama ? "ketama " : "modulo ") +
              std::string(hash::ToString(kind)),
          c);
    }
  }
  add("abl_distribution_envelope", "Ablation: MemFS envelope under both "
      "distributors, 8 nodes, 1 MiB files", {"write_MBps", "read11_MBps"});
  for (const bool ketama : {false, true}) {
    CellParams c = Envelope(kMem, 8, MiB(1), 8, 0, 1);
    c.use_ketama = ketama;
    row(ketama ? "ketama" : "modulo", c);
  }

  // §3.2.5's replication under faults: the chaos round trip
  // (src/workloads/chaos.h) of 4 x 1 MiB files per node on 8 servers with
  // replication 2 and a 20 ms op deadline, healthy and under two schedules.
  CellParams chaos;
  chaos.kind = CellKind::kChaos;
  chaos.files = 4;
  chaos.file_size = MiB(1);
  chaos.replication = 2;
  const Metrics recovery = {"retries",         "deadline_exceeded",
                            "breaker_opens",   "fast_fails",
                            "degraded_writes", "failover_reads",
                            "failover_writes", "read_repairs",
                            "dropped_msgs",    "fault_events"};
  for (const bool counters : {false, true}) {
    if (counters) {
      add("abl_faults_recovery", "Ablation: fault handling and recovery "
          "activity of the same runs", recovery);
    } else {
      add("abl_faults", "Ablation: chaos round trip, 32 x 1 MiB files on 8 "
          "servers, replication 2, 20 ms op deadline",
          {"files", "writes_ok", "reads_intact", "write_span_ms",
           "verify_span_ms"});
    }
    for (auto [faults, label] :
         {std::pair{Faults::kNone, "healthy"},
          std::pair{Faults::kScripted, "scripted faults"},
          std::pair{Faults::kGenerated, "generated seed=1"}}) {
      CellParams c = chaos;
      c.faults = faults;
      row(label, c);
    }
  }
  add("abl_migration_chaos", "Ablation: a standby joins mid-wave; one end of "
      "the handoff crashes at 5 ms and restarts at 13 ms",
      {"files", "writes_ok", "reads_intact", "failed_chunks",
       "join_keys_moved", "join_makespan_ms"});
  for (auto [victim, label] :
       {std::pair{0u, "source (server 0)"},
        std::pair{chaos.nodes, "destination (joiner)"}}) {
    CellParams c = chaos;
    c.use_ketama = true;
    c.migration_victim = victim;
    row(label, c);
  }
  add("abl_survival", "Ablation: 1 of 16 servers killed after a write of "
      "4 x 1 MiB files per node; files still fully readable",
      {"files", "readable", "failover_reads"});
  for (std::uint32_t replicas : {1, 2}) {
    CellParams c = Envelope(kMem, 16, MiB(1), 4, 0, 0);
    c.kind = CellKind::kChaos;
    c.faults = Faults::kKillServer;
    c.replication = replicas;
    row(Label(replicas, "replicas"), c);
  }

  // §5's runtime scale-out, and the scale-in it does not discuss: three
  // waves of 3 x 1 MiB files per node on 8 ketama servers; a standby joins
  // under the second and server 2 drains under the third.
  CellParams elastic;
  elastic.kind = CellKind::kChaos;
  elastic.files = 3;
  elastic.file_size = MiB(1);
  elastic.use_ketama = true;
  add("abl_elastic", "Ablation: elastic scale-out under a 24-file wave, "
      "epoch pinning vs live migration (8 servers + 1 standby)",
      {"corpus_skew", "join_makespan_ms", "join_MiB_moved", "join_keys_moved",
       "join_skew", "join_writes_ok"});
  add("abl_elastic_drain", "Ablation: elastic scale-in (server 2 drains) "
      "under a second 24-file wave",
      {"drain_makespan_ms", "drain_MiB_moved", "drain_keys_moved",
       "drain_skew", "drain_writes_ok"});
  add("abl_elastic_verify", "Ablation: every file of the three waves read "
      "back after both transitions",
      {"files", "reads_intact", "permanent_fails"});
  for (std::size_t fig = figs.size() - 3; fig < figs.size(); ++fig) {
    for (auto [arm, label] : {std::pair{ElasticArm::kEpochPin, "epoch-pin"},
                              std::pair{ElasticArm::kMigrate, "migrate"}}) {
      CellParams c = elastic;
      c.elastic = arm;
      figs[fig].rows.push_back({label, c, {}});
    }
  }

  // Beyond Fig. 6: an mdtest-style sweep of 512 entries per node on 8
  // nodes, the paper's append-log directories vs the token-range-sharded
  // metadata service (src/meta).
  add("abl_metadata_sweep", "Ablation: mdtest-style namespace sweep, 4096 "
      "entries on 8 nodes in 1 (hot-dir) or 64 (many-dir) directories",
      {"create_ops", "stat_ops", "readdir_ent_s", "unlink_ops",
       "max_list_rpc_B", "dentry_skew"});
  for (const DirShape shape : {DirShape::kHot, DirShape::kMany}) {
    for (const meta::MetadataMode mode :
         {meta::MetadataMode::kAppendLog, meta::MetadataMode::kSharded}) {
      CellParams c;
      c.kind = CellKind::kNamespace;
      c.files = 512;
      c.metadata = mode;
      c.dir_shape = shape;
      row(std::string(shape == DirShape::kHot ? "hot-dir " : "many-dir ") +
              (mode == meta::MetadataMode::kSharded ? "sharded"
                                                    : "append_log"),
          c);
    }
  }
  add("abl_metadata_bigdir", "Ablation: a bulk-loaded million-entry "
      "directory (sharded, 64 shards) paged at 256 entries per response",
      {"entries_listed", "pages", "max_list_rpc_B", "one_get_B", "list_wire_B",
       "readdir_ent_s"});
  CellParams big;
  big.kind = CellKind::kNamespace;
  big.metadata = meta::MetadataMode::kSharded;
  big.bulk_entries = 1000000;
  big.dir_shards = 64;
  row("1000000 entries", big);
  return figs;
}

// --- claims ---------------------------------------------------------------

std::vector<Claim> BuildClaims() {
  using enum Relation::Op;
  // §4.1 / Fig. 4: MemFS beats AMFS on write and N-1 read at every file size.
  Claim wins{"MemFsWinsWriteAndN1AtAllSizes", {}};
  for (std::string_view fig : {"fig04a", "fig04b", "fig04c"}) {
    for (std::string_view metric : {"write_MBps", "readn1_MBps"}) {
      wins.relations.push_back({{fig, "16 nodes MemFS", metric}, kGreater, 1,
                                {fig, "16 nodes AMFS", metric}});
    }
  }
  return {
      std::move(wins),
      // §4.1 / Fig. 4c: the one metric AMFS wins is 1-1 reads of large
      // files, and only at scale (Fig. 4c crosses at 64 nodes): AMFS streams
      // locally at a flat per-node rate while MemFS's remote reads see
      // growing contention transients.
      {"AmfsWinsLargeFileLocalReadsOnly",
       {{{"fig04a", "16 nodes MemFS", "read11_MBps"}, kGreater, 1,
         {"fig04a", "16 nodes AMFS", "read11_MBps"}},
        {{"fig04c", "64 nodes AMFS", "read11_MBps"}, kGreater, 1,
         {"fig04c", "64 nodes MemFS", "read11_MBps"}}}},
      // §4.1 / Table 1: losing locality costs AMFS ~4x; MemFS beats the
      // degraded AMFS by >4x on the premium fabric.
      {"RemoteReadPenaltyRatios",
       {{{"table1", "IPoIB AMFS", "read11_MBps"}, kGreater, 3,
         {"table1", "IPoIB AMFS", "remote11_MBps"}},
        {{"table1", "IPoIB MemFS", "read11_MBps"}, kGreater, 3,
         {"table1", "IPoIB AMFS", "remote11_MBps"}}}},
      // §4.1 / Fig. 5: the AMFS accounting artifact — N-1 throughput equals
      // 1-1 (the multicast is charged to bandwidth only).
      {"AmfsN1ThroughputEqualsOneToOne",
       {{{"fig05b", "8 nodes AMFS", "readn1_ops"}, kNear, 1,
         {"fig05b", "8 nodes AMFS", "read11_ops"}, 0.05},
        {{"fig04b", "8 nodes AMFS", "readn1_MBps"}, kLess, 0.5,
         {"fig04b", "8 nodes AMFS", "read11_MBps"}}}},
      // §4.1 / Fig. 6: MemFS open beats MemFS create; AMFS open beats
      // everything.
      {"MetadataRelationships",
       {{{"fig06", "16 nodes MemFS", "open_ops"}, kGreater, 1,
         {"fig06", "16 nodes MemFS", "create_ops"}},
        {{"fig06", "16 nodes AMFS", "open_ops"}, kGreater, 1,
         {"fig06", "16 nodes MemFS", "open_ops"}}}},
      // §4.2: MemFS completes Montage faster than AMFS; its per-node storage
      // stays balanced while AMFS concentrates (and inflates) data.
      {"MontageFasterAndBalanced",
       {{{"fig08a", "8 nodes MemFS_8", "makespan_s"}, kLess, 1,
         {"fig08a", "8 nodes AMFS_8", "makespan_s"}},
        {{"fig09", "8 nodes MemFS", "mem_cv"}, kLess, 0.25, Ref{}},
        {{"fig09", "8 nodes AMFS", "mem_cv"}, kGreater, 2,
         {"fig09", "8 nodes MemFS", "mem_cv"}},
        {{"fig09", "8 nodes AMFS", "mem_total_MB"}, kGreater, 1,
         {"fig09", "8 nodes MemFS", "mem_total_MB"}}}},
      // §4.2.2 / Fig. 10: a single FUSE mountpoint caps vertical scaling of
      // the I/O-bound stages; per-process mounts restore it.
      {"FuseMountpointCeiling",
       {{{"fig10a", "128 cores", "makespan_s"}, kGreater, 1.5,
         {"fig10b", "128 cores", "makespan_s"}}}},
      // §4.2.2 / Fig. 16: system bandwidth is twice the application
      // bandwidth: every application byte crosses the wire once, and at the
      // NIC level it appears at a sender AND a receiver.
      {"SystemBandwidthTwiceApplication",
       {{{"fig16b", "1 procs/node", "system_MBps_node"}, kNear, 2,
         {"fig16b", "1 procs/node", "app_MBps_node"}, 0.15}}},
  };
}

const Figure* FindFigure(std::string_view id) {
  for (const Figure& figure : PaperFigures()) {
    if (figure.id == id) return &figure;
  }
  return nullptr;
}

// Ledger numbers keep ten significant digits, so a value rendered before
// and after a JSON round trip is the same.
std::string LedgerNum(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::optional<std::string> StringField(const std::string& line,
                                       std::string_view key) {
  const std::string tag = "\"" + std::string(key) + "\": \"";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t begin = at + tag.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return std::nullopt;
  return line.substr(begin, end - begin);
}

std::optional<double> NumberField(const std::string& line,
                                  std::string_view key) {
  const std::string tag = "\"" + std::string(key) + "\": ";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return std::nullopt;
  const char* begin = line.c_str() + at + tag.size();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  return value;
}

constexpr std::string_view kBlockBegin = "<!-- paper_figures ";
constexpr std::string_view kBlockEnd = "<!-- /paper_figures -->";

// The figure id a doc block's begin marker names.
std::optional<std::string> BlockId(const std::string& line) {
  if (!line.starts_with(kBlockBegin) || !line.ends_with(" -->")) {
    return std::nullopt;
  }
  return line.substr(kBlockBegin.size(), line.size() - kBlockBegin.size() - 4);
}

}  // namespace

std::string CellId(const CellParams& p) {
  static constexpr std::string_view kKinds[] = {
      "envelope",     "workflow", "wire",     "inventory",
      "distribution", "chaos",    "namespace"};
  static constexpr std::string_view kWorkloads[] = {
      "",         "montage6",  "montage12",   "montage16",
      "blast512", "blast1024", "montage6io", "montage6small"};
  std::ostringstream id;
  id << kKinds[static_cast<int>(p.kind)];
  if (p.workload != Workload::kNone) {
    id << '/' << kWorkloads[static_cast<int>(p.workload)];
  }
  if (p.kind == CellKind::kInventory) return id.str();
  if (p.kind == CellKind::kDistribution) {
    id << "/n" << p.nodes << '/' << (p.use_ketama ? "ketama" : "modulo")
       << '/' << hash::ToString(p.hash);
    return id.str();
  }
  id << '/' << workloads::ToString(p.fs) << '/' << workloads::ToString(p.fabric)
     << "/n" << p.nodes << 'x' << p.procs;
  if (p.file_size != 0) {
    id << "/files=" << p.files << 'x' << Size(p.file_size);
  } else if (p.files != 0) {
    id << "/files=" << p.files;
  }
  if (p.io_block != 0) id << "/block=" << Size(p.io_block);
  if (p.meta_files != 0) id << "/meta=" << p.meta_files;
  if (p.remote_read) id << "/remote";
  if (p.stripe != 0) id << "/stripe=" << Size(p.stripe);
  if (p.io_threads) id << "/io_threads=" << *p.io_threads;
  if (p.read_threads) id << "/read_threads=" << *p.read_threads;
  if (p.prefetch_depth) id << "/prefetch=" << *p.prefetch_depth;
  if (p.read_cache_bytes != 0) id << "/cache=" << Size(p.read_cache_bytes);
  if (p.replication != 1) id << "/replicas=" << p.replication;
  if (!p.io_batching) id << "/unbatched";
  if (p.max_batch_ops != 0) id << "/max_batch=" << p.max_batch_ops;
  if (p.library_mode) id << "/library";
  if (p.mounts != 1) id << "/mounts=" << p.mounts;
  if (p.contended_fuse) id << "/contended_fuse";
  if (p.use_ketama) id << "/ketama";
  if (p.hash != hash::HashKind::kFnv1a64) {
    id << "/hash=" << hash::ToString(p.hash);
  }
  if (p.node_memory != 0) id << "/memory=" << Size(p.node_memory);
  if (p.fabric_bandwidth != 0) id << "/core=" << p.fabric_bandwidth << "Bps";
  if (p.net_model == workloads::NetModel::kWaterfill) id << "/waterfill";
  if (!p.amfs_shell_jobs) id << "/no_shell_jobs";
  static constexpr std::string_view kFaults[] = {"", "scripted", "generated",
                                                 "kill_server"};
  if (p.faults != Faults::kNone) {
    id << "/faults=" << kFaults[static_cast<int>(p.faults)];
  }
  if (p.migration_victim) id << "/victim=" << *p.migration_victim;
  if (p.elastic != ElasticArm::kNone) {
    id << (p.elastic == ElasticArm::kMigrate ? "/migrate" : "/epoch_pin");
  }
  if (p.metadata == meta::MetadataMode::kSharded) id << "/sharded";
  if (p.dir_shape == DirShape::kMany) id << "/many_dirs";
  if (p.bulk_entries != 0) id << "/bulk=" << p.bulk_entries;
  if (p.dir_shards != 0) id << "/dir_shards=" << p.dir_shards;
  return id.str();
}

mtc::Workflow BuildWorkload(const CellParams& params) {
  return BuildScaled(params.workload, params.kind == CellKind::kInventory);
}

CellResult RunCell(const CellParams& params, const mtc::Workflow* workflow) {
  CellResult result;
  switch (params.kind) {
    case CellKind::kEnvelope: RunEnvelope(params, result); break;
    case CellKind::kWorkflow:
      if (workflow != nullptr) {
        RunWorkflow(params, *workflow, result);
      } else {
        RunWorkflow(params, BuildWorkload(params), result);
      }
      break;
    case CellKind::kWire: RunWire(params, result); break;
    case CellKind::kInventory: RunInventory(params, result); break;
    case CellKind::kDistribution: RunDistribution(params, result); break;
    case CellKind::kChaos: RunChaos(params, result); break;
    case CellKind::kNamespace: RunNamespace(params, result); break;
  }
  return result;
}

const std::vector<Figure>& PaperFigures() {
  static const std::vector<Figure> figures = BuildFigures();
  return figures;
}

const std::vector<Claim>& PaperClaims() {
  static const std::vector<Claim> claims = BuildClaims();
  return claims;
}

const Row* FindRow(std::string_view figure, std::string_view label) {
  const Figure* fig = FindFigure(figure);
  if (fig == nullptr) return nullptr;
  for (const Row& row : fig->rows) {
    if (row.label == label) return &row;
  }
  return nullptr;
}

const MetricSpec& Metric(std::string_view name) {
  static constexpr MetricSpec kUnknown{"", "", 2, 0.0};
  for (const MetricSpec& spec : kMetrics) {
    if (spec.name == name) return spec;
  }
  return kUnknown;
}

void AddRecords(Ledger& ledger, const Figure& figure, const Row& row,
                const CellResult& result) {
  const std::string cell = CellId(row.cell);
  for (const std::string& metric : figure.metrics) {
    Record record;
    if (const auto paper = row.paper.find(metric); paper != row.paper.end()) {
      record.paper = paper->second;
    }
    const auto measured = result.metrics.find(metric);
    if (!result.status.ok()) {
      // A failed run records why, never the numbers it left behind.
      record.status = result.status.ToString();
      std::replace_if(
          record.status.begin(), record.status.end(),
          [](char c) { return c == '"' || c == '\\' || c == '|' || c == '\n'; },
          '\'');
    } else if (measured != result.metrics.end()) {
      record.value = std::strtod(LedgerNum(measured->second).c_str(), nullptr);
    } else {
      continue;  // e.g. a stage this workflow does not have
    }
    ledger[{figure.id, cell, metric}] = record;
  }
}

void WriteLedger(std::ostream& os, const Ledger& ledger) {
  os << "{\n  \"bench\": \"paper_figures\",\n  \"records\": [";
  const char* sep = "\n";
  for (const auto& [key, record] : ledger) {
    const auto& [figure, cell, metric] = key;
    os << sep << "    {\"figure\": \"" << figure << "\", \"cell\": \"" << cell
       << "\", \"metric\": \"" << metric << "\", \"status\": \""
       << record.status << "\", \"value\": "
       << (record.status == "ok" ? LedgerNum(record.value) : "null");
    if (record.paper) os << ", \"paper\": " << LedgerNum(*record.paper);
    os << "}";
    sep = ",\n";
  }
  os << "\n  ]\n}\n";
}

std::optional<Ledger> LoadLedger(std::istream& is) {
  Ledger ledger;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("\"figure\": ") == std::string::npos) continue;
    const auto figure = StringField(line, "figure");
    const auto cell = StringField(line, "cell");
    const auto metric = StringField(line, "metric");
    const auto status = StringField(line, "status");
    const auto value = NumberField(line, "value");
    if (!figure || !cell || !metric || !status ||
        (*status == "ok" && !value)) {
      return std::nullopt;
    }
    ledger[{*figure, *cell, *metric}] =
        Record{*status, value.value_or(0), NumberField(line, "paper")};
  }
  return ledger;
}

void RenderFigure(std::ostream& os, const Figure& figure, const Ledger& ledger,
                  Format format) {
  std::vector<std::string> headers = {"configuration"};
  for (const std::string& metric : figure.metrics) {
    headers.emplace_back(Metric(metric).header);
  }
  std::vector<std::vector<std::string>> rows;
  for (const Row& row : figure.rows) {
    std::vector<std::string> cells = {row.label};
    const std::string cell = CellId(row.cell);
    for (const std::string& metric : figure.metrics) {
      const auto it = ledger.find({figure.id, cell, metric});
      if (it == ledger.end()) {
        cells.emplace_back("-");
      } else if (it->second.status != "ok") {
        // The status once per row; no column of a failed run shows a number.
        cells.emplace_back(cells.size() == 1 ? it->second.status : "-");
      } else {
        std::string text =
            Table::Num(it->second.value, Metric(metric).precision);
        if (it->second.paper) {
          char paper[32];
          std::snprintf(paper, sizeof(paper), " (%g)", *it->second.paper);
          text += paper;
        }
        cells.push_back(std::move(text));
      }
    }
    rows.push_back(std::move(cells));
  }

  if (format == Format::kMarkdown) {
    const auto line = [&os](const std::vector<std::string>& cells) {
      for (const std::string& cell : cells) os << "| " << cell << " ";
      os << "|\n";
    };
    line(headers);
    line(std::vector<std::string>(headers.size(), "---"));
    for (const auto& cells : rows) line(cells);
    return;
  }
  Table table(headers);
  for (auto& cells : rows) table.AddRow(std::move(cells));
  os << "# " << figure.id << " — " << figure.title << "\n";
  table.Print(os, format == Format::kCsv);
  os << "\n";
}

Result<std::string> RenderMarkdownBlocks(const std::string& doc,
                                         const Ledger& ledger) {
  std::istringstream in(doc);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    out << line << '\n';
    const auto id = BlockId(line);
    if (!id) continue;
    const Figure* figure = FindFigure(*id);
    if (figure == nullptr) {
      return status::InvalidArgument("a block names no figure: " + *id);
    }
    std::string body;
    bool ended = false;
    while (!ended && std::getline(in, line) && !BlockId(line)) {
      ended = line == kBlockEnd;
      if (!ended) body += line + '\n';
    }
    if (!ended) {
      return status::InvalidArgument("the " + *id +
                                     " block has no end marker");
    }
    const auto first = ledger.lower_bound({*id, "", ""});
    if (first != ledger.end() && std::get<0>(first->first) == *id) {
      RenderFigure(out, *figure, ledger, Format::kMarkdown);
    } else {
      out << body;
    }
    out << kBlockEnd << '\n';
  }
  return out.str();
}

std::vector<std::string> CheckMarkdownBlocks(const std::string& doc) {
  std::map<std::string, int> blocks;
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    if (const auto id = BlockId(line)) ++blocks[*id];
  }
  std::vector<std::string> problems;
  for (const Figure& figure : PaperFigures()) {
    const int count = blocks[figure.id];
    if (count != 1) {
      problems.push_back(figure.id + ": " + std::to_string(count) +
                         " doc blocks, want 1");
    }
  }
  return problems;
}

std::vector<std::string> CheckLedger(const Ledger& run,
                                     const Ledger& baseline) {
  std::vector<std::string> problems;
  for (const auto& [key, record] : run) {
    const auto& [figure, cell, metric] = key;
    const std::string where = figure + " " + cell + " " + metric + ": ";
    const auto it = baseline.find(key);
    if (it == baseline.end()) {
      problems.push_back(where + "not in the ledger");
    } else if (record.status != it->second.status) {
      problems.push_back(where + "status " + record.status + ", ledger " +
                         it->second.status);
    } else if (record.status == "ok") {
      const double a = record.value;
      const double b = it->second.value;
      const double tolerance = Metric(metric).tolerance;
      if (std::abs(a - b) > tolerance * std::max(std::abs(a), std::abs(b))) {
        problems.push_back(where + LedgerNum(a) + ", ledger " + LedgerNum(b) +
                           " (tolerance " + LedgerNum(tolerance * 100) +
                           "%)");
      }
    }
  }
  // A figure the run measured must still produce every record the ledger
  // has for it.
  for (const auto& [key, record] : baseline) {
    const auto& [figure, cell, metric] = key;
    const auto first = run.lower_bound({figure, "", ""});
    if (first != run.end() && std::get<0>(first->first) == figure &&
        !run.contains(key)) {
      problems.push_back(figure + " " + cell + " " + metric +
                         ": in the ledger, not in the run");
    }
  }
  return problems;
}

}  // namespace memfs::bench

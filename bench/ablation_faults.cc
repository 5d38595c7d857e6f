// Ablation — chaos harness for the fault-injection engine and the client
// retry/deadline/breaker layer. Runs the same Envelope-style workload
// (32 x 1 MiB files, staggered starts, round-robin client nodes, 8 servers,
// replication 2) three times: healthy, under a scripted schedule of disjoint
// crash/slow/loss windows, and under a seed-generated schedule. Reports
// completion rate, wall-clock (simulated) overhead versus the healthy
// baseline, and every fault/recovery counter, so a change to the retry or
// degradation logic shows up as a shifted row, not a vague test failure.
// A last table kills one of 16 servers after a write phase and counts the
// files that replication (§3.2.5) keeps readable.
#include <cstdint>
#include <iostream>
#include <vector>

#include "common/table.h"
#include "common/units.h"
#include "sim/fault.h"
#include "workloads/chaos.h"
#include "workloads/envelope.h"
#include "workloads/testbed.h"

using namespace memfs;  // NOLINT

namespace {

constexpr std::uint32_t kNodes = 8;
constexpr std::uint32_t kFiles = 32;
constexpr std::uint64_t kFileSize = units::MiB(1);

struct ChaosResult {
  std::uint32_t writes_ok = 0;
  std::uint32_t reads_intact = 0;
  double write_span_ms = 0;
  double verify_span_ms = 0;
  kv::KvClusterStats kv;
  fs::MemFsStats fs;
  std::uint64_t dropped_messages = 0;
  std::uint64_t fault_events = 0;
};

ChaosResult RunChaos(const std::vector<sim::FaultEvent>& schedule) {
  workloads::TestbedConfig config;
  config.nodes = kNodes;
  config.memfs.replication = 2;
  config.kv_policy = workloads::ChaosPolicy();
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);
  sim::Simulation& sim = bed.simulation();

  sim::FaultInjector injector(sim, bed.fault_hooks());
  injector.ScheduleAll(schedule);

  const workloads::Wave wave{kFiles,    kFileSize, units::Millis(3),
                             "/chaos_", 1000,      kNodes};
  workloads::WaveResult files;
  workloads::LaunchWave(sim, bed.vfs(), wave, files);
  sim.Run();
  const sim::SimTime write_end = sim.now();
  workloads::VerifyWave(bed.vfs(), wave, files);
  sim.Run();

  ChaosResult result;
  result.writes_ok = files.writes_ok();
  result.reads_intact = files.Count(workloads::Verdict::kIntact);
  result.write_span_ms = static_cast<double>(write_end) / 1e6;
  result.verify_span_ms = static_cast<double>(sim.now() - write_end) / 1e6;
  result.kv = bed.storage()->stats();
  result.fs = bed.memfs()->stats();
  result.dropped_messages = bed.network().dropped_messages();
  result.fault_events = injector.stats().total_events();
  return result;
}

// --- Migration chaos: crash one end of a live handoff ---------------------

struct MigrationChaosRow {
  std::uint32_t writes_ok = 0;
  std::uint32_t reads_intact = 0;
  bool converged = false;
  std::uint64_t failed_chunks = 0;
  std::uint64_t keys_moved = 0;
  double makespan_ms = 0;
};

// A standby node joins mid-workload; `victim` (a migration source, or the
// joining destination itself when victim == kNodes) crashes at 5 ms — right
// after the first handoff sweep begins — and restarts at 13 ms with data
// intact. The resumed sweeps must be idempotent over whatever the crashed
// attempt already copied.
MigrationChaosRow RunMigrationChaos(std::uint32_t victim) {
  workloads::TestbedConfig config;
  config.nodes = kNodes;
  config.standby_nodes = 1;
  config.elastic = true;
  config.memfs.replication = 2;
  config.memfs.use_ketama = true;
  config.kv_policy = workloads::ChaosPolicy();
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);
  sim::Simulation& sim = bed.simulation();

  const workloads::Wave wave{kFiles, kFileSize, units::Millis(1), "/mig_",
                             3000,   kNodes};
  workloads::WaveResult files;
  workloads::LaunchWave(sim, bed.vfs(), wave, files);
  workloads::TransitionReport join;
  workloads::RunTransitions(sim, *bed.membership(), *bed.migrator(),
                            {{workloads::Transition::kJoin, kNodes,
                              units::Millis(4), units::Millis(1)}},
                            join);
  kv::KvCluster& storage = *bed.storage();
  sim.Schedule(units::Millis(5), [&storage, victim] {
    storage.SetServerDown(victim, true, /*wipe_on_restart=*/false);
  });
  sim.Schedule(units::Millis(13), [&storage, victim] {
    storage.SetServerDown(victim, false);
  });
  sim.Run();
  workloads::VerifyWave(bed.vfs(), wave, files);
  sim.Run();

  MigrationChaosRow row;
  row.writes_ok = files.writes_ok();
  row.reads_intact = files.Count(workloads::Verdict::kIntact);
  row.converged = join.committed();
  row.makespan_ms = static_cast<double>(join.steps[0].makespan) / 1e6;
  row.failed_chunks = bed.migrator()->progress().failed_chunks;
  row.keys_moved = bed.migrator()->progress().keys_moved;
  return row;
}

// --- Replication survival: one dead server, no fault schedule -----------

struct SurvivalRow {
  std::uint32_t readable = 0;
  std::uint32_t total = 0;
  std::uint64_t failover_reads = 0;
};

// 16 nodes write 4 x 1 MiB files each; server 3 dies; every file is re-read.
// A read that hits the dead server without a replica returns UNAVAILABLE
// and loses the file.
SurvivalRow RunSurvival(std::uint32_t replicas) {
  workloads::TestbedConfig config;
  config.nodes = 16;
  config.memfs.replication = replicas;
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);

  workloads::EnvelopeParams env;
  env.nodes = 16;
  env.file_size = units::MiB(1);
  env.files_per_proc = 4;
  workloads::EnvelopeBench bench(bed.simulation(), bed.vfs(), env, nullptr);
  (void)bench.RunWrite();
  bed.storage()->SetServerDown(3, true);

  SurvivalRow row;
  for (std::uint32_t node = 0; node < 16; ++node) {
    for (std::uint32_t f = 0; f < 4; ++f) {
      ++row.total;
      const std::string path = "/env/d_n" + std::to_string(node) + "_p0_f" +
                               std::to_string(f);
      bool ok = false;
      [](fs::Vfs& vfs, std::string p, bool& flag) -> sim::Task {
        fs::VfsContext ctx{0, 0};
        auto opened = co_await vfs.Open(ctx, p);
        if (!opened.ok()) co_return;
        std::uint64_t off = 0;
        while (true) {
          auto chunk =
              co_await vfs.Read(ctx, opened.value(), off, units::MiB(1));
          if (!chunk.ok()) co_return;
          if (chunk->empty()) break;
          off += chunk->size();
        }
        (void)co_await vfs.Close(ctx, opened.value());
        flag = off == units::MiB(1);
      }(bed.vfs(), path, ok);
      bed.simulation().Run();
      row.readable += ok ? 1 : 0;
    }
  }
  row.failover_reads = bed.memfs()->stats().replica_failovers;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = WantCsv(argc, argv);

  std::cout << "# Chaos ablation: Envelope-style workload (" << kFiles
            << " x 1 MiB, 8 servers, replication 2, 20 ms op deadline)\n";

  struct Scenario {
    const char* name;
    std::vector<sim::FaultEvent> schedule;
  };
  sim::FaultScheduleConfig generated;
  generated.seed = 1;
  generated.servers = generated.nodes = kNodes;
  generated.horizon = units::Millis(90);
  generated.crashes = 3;
  generated.slow_episodes = 2;
  generated.link_faults = 2;
  const std::vector<Scenario> scenarios = {
      {"healthy", {}},
      {"scripted faults", workloads::ScriptedChaosSchedule()},
      {"generated seed=1", sim::GenerateFaultSchedule(generated)},
  };

  Table completion({"scenario", "writes ok", "reads intact", "write span (ms)",
                    "x healthy", "verify span (ms)"});
  Table recovery({"scenario", "retries", "deadline exc", "breaker opens",
                  "fast fails", "degraded wr", "failover rd", "failover wr",
                  "read repairs", "dropped msgs", "fault events"});

  double healthy_span = 0;
  for (const Scenario& scenario : scenarios) {
    const ChaosResult r = RunChaos(scenario.schedule);
    if (healthy_span == 0) healthy_span = r.write_span_ms;
    completion.AddRow({scenario.name,
                       Table::Int(r.writes_ok) + "/" + Table::Int(kFiles),
                       Table::Int(r.reads_intact) + "/" + Table::Int(kFiles),
                       Table::Num(r.write_span_ms, 2),
                       Table::Num(r.write_span_ms / healthy_span, 2),
                       Table::Num(r.verify_span_ms, 2)});
    recovery.AddRow({scenario.name, Table::Int(r.kv.retries),
                     Table::Int(r.kv.deadline_exceeded),
                     Table::Int(r.kv.breaker_opens),
                     Table::Int(r.kv.breaker_fast_fails),
                     Table::Int(r.fs.degraded_writes),
                     Table::Int(r.fs.replica_failovers),
                     Table::Int(r.fs.write_failovers),
                     Table::Int(r.fs.read_repairs),
                     Table::Int(r.dropped_messages),
                     Table::Int(r.fault_events)});
  }
  completion.Print(std::cout, csv);

  std::cout << "\n# Fault handling and recovery activity\n";
  recovery.Print(std::cout, csv);

  std::cout << "\n# Migration chaos: standby joins mid-workload, one end of "
               "the handoff crashes at 5 ms and restarts at 13 ms\n";
  Table migration({"victim", "writes ok", "reads intact", "converged",
                   "failed chunks", "keys moved", "join makespan (ms)"});
  struct Victim {
    const char* name;
    std::uint32_t server;
  };
  const std::vector<Victim> victims = {{"source (server 0)", 0},
                                       {"destination (joiner)", kNodes}};
  for (const Victim& victim : victims) {
    const MigrationChaosRow row = RunMigrationChaos(victim.server);
    migration.AddRow({victim.name,
                      Table::Int(row.writes_ok) + "/" + Table::Int(kFiles),
                      Table::Int(row.reads_intact) + "/" + Table::Int(kFiles),
                      row.converged ? "yes" : "NO",
                      Table::Int(row.failed_chunks),
                      Table::Int(row.keys_moved),
                      Table::Num(row.makespan_ms, 2)});
  }
  migration.Print(std::cout, csv);

  std::cout << "\n# Fault tolerance: 1 of 16 servers killed after the write "
               "phase; fraction of files still fully readable\n";
  Table survival({"replicas", "files readable", "failover reads"});
  for (std::uint32_t replicas : {1u, 2u}) {
    const SurvivalRow row = RunSurvival(replicas);
    survival.AddRow({Table::Int(replicas),
                     Table::Int(row.readable) + "/" + Table::Int(row.total),
                     Table::Int(row.failover_reads)});
  }
  survival.Print(std::cout, csv);
  return 0;
}

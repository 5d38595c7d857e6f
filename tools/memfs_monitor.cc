// memfs_monitor — continuous cluster monitoring for one simulated workload.
//
// Runs an MTC workflow on a simulated MemFS cluster with the time-series
// monitor attached (src/monitor): every layer's gauges (per-server kv
// memory/objects/queue depth, io lane occupancy, per-link utilization,
// breaker state, open files, dirty buffers) are sampled into fixed-interval
// windows, then:
//   * prints the per-series summary (min/mean/max/last over all windows);
//   * runs the symmetry auditor — per-window skew/CoV/chi-square across the
//     per-server series families, the paper's load-balance claim as a
//     timeline instead of an end-of-run average;
//   * evaluates SLO rules (defaults below; add more with --slo) and reports
//     every violation with the offending window;
//   * optionally exports the full timeline (--out CSV, --json JSON) and one
//     family's balance timeline (--balance).
//
//   memfs_monitor --nodes=8 --faults --out=timeline.csv
//   memfs_monitor --workload=blast --balance=kv.mem_bytes --csv
//
// Monitoring never schedules events: same flags with or without the monitor
// produce the same event digest (pinned by the determinism_gate ctest).
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/table.h"
#include "common/units.h"
#include "diagnose/diagnose.h"
#include "kvstore/membership.h"
#include "kvstore/migrator.h"
#include "meta/meta.h"
#include "monitor/monitor.h"
#include "monitor/probes.h"
#include "monitor/slo.h"
#include "monitor/symmetry.h"
#include "mtc/runner.h"
#include "mtc/scheduler.h"
#include "sim/fault.h"
#include "sim/task.h"
#include "trace/trace.h"
#include "workloads/blast.h"
#include "workloads/montage.h"
#include "workloads/testbed.h"

namespace {

using namespace memfs;  // NOLINT: binary-local brevity

constexpr const char* kHelp = R"(memfs_monitor — cluster monitoring timeline
+ symmetry audit + SLO watchdog

  --workload=montage|blast            what to run          [montage]
  --nodes=N                           cluster size         [8]
  --cores=N                           cores per node       [8]
  --fabric=ipoib|gbe|ec2|rdma         network preset       [ipoib]
  --degree=6|12|16                    mosaic size          [6]
  --fragments=N                       BLAST db split       [512]
  --task-scale=N                      divide task count    [64]
  --size-scale=N                      divide file sizes    [16]
  --replication=N                     stripe copies        [1]
  --metadata=append_log|sharded       namespace service    [sharded]
  --interval-us=N                     sampling window (us) [1000]
  --retention=N                       windows retained     [65536]
  --faults                            seeded fault episodes [off]
  --fault-seed=N                      fault schedule seed  [7]
  --elastic                           join + drain mid-run [off]
  --slo=RULE[;RULE...]                extra SLO rules      [defaults only]
  --no-default-slo                    drop the default rules
  --balance=BASE                      balance timeline for one family
  --out=FILE                          timeline CSV
  --json=FILE                         timeline JSON
  --violations=N                      violations listed per rule [10]
  --csv                               CSV tables
  --incidents                         incident flight recorder [off]
  --incidents-json=FILE               incident JSON export
  --incident-p99-ms=N                 vfs.write p99 SLO bound (ms) [5]

Default SLO rules:
  skew(kv.mem_bytes) < 1.25 for 95% of windows
  skew(meta.dentries) < 1.25 when sum(meta.dentries) > 1024 for 95% of windows
  sum(vfs.write.rate) > 0 when sum(io.queued) > 0 for 100% of windows
With --elastic (p99 must hold while data rebalances):
  value(vfs.write.p99_ms) < 50 for 95% of windows
)";

// With --elastic: waits for the workload to ramp, joins the standby node,
// pumps the migrator until handoff commits, then drains one of the original
// servers the same way — all while the workflow keeps issuing I/O.
sim::Task RunElasticDriver(sim::Simulation& sim, kv::Membership& membership,
                           kv::Migrator& migrator, net::NodeId join_node,
                           std::uint32_t drain_server) {
  co_await sim.Delay(units::Millis(6));
  (void)membership.BeginJoin(join_node);
  for (int runs = 0; membership.migrating() && runs < 16; ++runs) {
    (void)co_await migrator.Rebalance();
  }
  co_await sim.Delay(units::Millis(6));
  membership.BeginDrain(drain_server);
  for (int runs = 0; membership.migrating() && runs < 16; ++runs) {
    (void)co_await migrator.Rebalance();
  }
}

workloads::Fabric ParseFabric(const std::string& name) {
  if (name == "gbe") return workloads::Fabric::kDas4GbE;
  if (name == "ec2") return workloads::Fabric::kEc2TenGbE;
  if (name == "rdma") return workloads::Fabric::kRdma;
  return workloads::Fabric::kDas4Ipoib;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("help")) {
    std::cout << kHelp;
    return 0;
  }

  const std::string workload = flags.GetString("workload", "montage");
  const auto nodes = static_cast<std::uint32_t>(flags.GetUint("nodes", 8));
  const auto cores = static_cast<std::uint32_t>(flags.GetUint("cores", 8));
  const auto fabric = ParseFabric(flags.GetString("fabric", "ipoib"));
  const auto task_scale =
      static_cast<std::uint32_t>(flags.GetUint("task-scale", 64));
  const auto size_scale = flags.GetUint("size-scale", 16);
  const auto degree = static_cast<std::uint32_t>(flags.GetUint("degree", 6));
  const auto fragments =
      static_cast<std::uint32_t>(flags.GetUint("fragments", 512));
  const auto replication =
      static_cast<std::uint32_t>(flags.GetUint("replication", 1));
  const std::string metadata = flags.GetString("metadata", "sharded");
  const auto interval_us = flags.GetUint("interval-us", 1000);
  const auto retention =
      static_cast<std::size_t>(flags.GetUint("retention", 1u << 16));
  const bool faults = flags.GetBool("faults");
  const auto fault_seed = flags.GetUint("fault-seed", 7);
  const bool elastic = flags.GetBool("elastic");
  const std::string slo_arg = flags.GetString("slo", "");
  const bool no_default_slo = flags.GetBool("no-default-slo");
  const std::string balance = flags.GetString("balance", "");
  const std::string out = flags.GetString("out", "");
  const std::string json = flags.GetString("json", "");
  const auto violations =
      static_cast<std::size_t>(flags.GetUint("violations", 10));
  const bool csv = flags.GetBool("csv");
  const bool incidents = flags.GetBool("incidents");
  const std::string incidents_json = flags.GetString("incidents-json", "");
  const auto incident_p99_ms = flags.GetUint("incident-p99-ms", 5);

  for (const auto& unknown : flags.UnknownFlags()) {
    std::cerr << "unknown flag: --" << unknown << "\n" << kHelp;
    return 2;
  }

  mtc::Workflow workflow;
  if (workload == "blast") {
    workloads::BlastParams params;
    params.fragments = fragments;
    params.task_scale = task_scale;
    params.size_scale = size_scale;
    workflow = workloads::BuildBlast(params);
  } else if (workload == "montage") {
    workloads::MontageParams params;
    params.degree = degree;
    params.task_scale = task_scale;
    params.size_scale = size_scale;
    workflow = workloads::BuildMontage(params);
  } else {
    std::cerr << "unknown workload: " << workload << "\n" << kHelp;
    return 2;
  }

  MetricsRegistry metrics;
  workloads::TestbedConfig config;
  config.nodes = nodes;
  config.fabric = fabric;
  config.memfs.replication = replication;
  if (metadata == "sharded") {
    config.memfs.metadata = meta::MetadataMode::kSharded;
  } else if (metadata != "append_log") {
    std::cerr << "unknown metadata mode: " << metadata << "\n" << kHelp;
    return 2;
  }
  if (faults) {
    config.kv_policy.retry.max_attempts = 5;
    config.kv_policy.op_deadline = units::Millis(20);
  }
  if (elastic) {
    config.elastic = true;
    if (config.standby_nodes == 0) config.standby_nodes = 1;
  }
  config.metrics = &metrics;
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);

  monitor::MonitorConfig monitor_config;
  monitor_config.interval =
      static_cast<sim::SimTime>(units::Micros(interval_us));
  monitor_config.retention = retention;
  monitor::Monitor mon(bed.simulation(), monitor_config);
  mon.WatchRegistry(&metrics);
  monitor::AttachNetworkProbes(mon, bed.network());
  std::unique_ptr<trace::Tracer> tracer;
  if (incidents) {
    // Flight recorder inputs: traced operations (for exemplar attribution),
    // per-window exemplar harvests, and a cumulative write-p99 gauge the
    // incident SLO below watches. All read-only over the run — the
    // determinism_gate ctest pins digest neutrality.
    tracer = std::make_unique<trace::Tracer>(bed.simulation());
    mon.HarvestExemplars(&metrics);
  }
  if (incidents && !elastic) {
    mon.AddGaugeProbe("vfs.write.p99_ms", [&metrics] {
      const auto& histograms = metrics.all();
      const auto it = histograms.find("vfs.write");
      return it == histograms.end()
                 ? 0.0
                 : it->second.PercentileNanos(0.99) / 1e6;
    });
  }
  if (elastic) {
    // Cumulative write p99 as a gauge: the SLO below pins it while the
    // migrator streams keys between servers. Probes must be read-only, so
    // look the histogram up without creating it (0 until the first write).
    mon.AddGaugeProbe("vfs.write.p99_ms", [&metrics] {
      const auto& histograms = metrics.all();
      const auto it = histograms.find("vfs.write");
      return it == histograms.end()
                 ? 0.0
                 : it->second.PercentileNanos(0.99) / 1e6;
    });
    RunElasticDriver(bed.simulation(), *bed.membership(), *bed.migrator(),
                     /*join_node=*/nodes, /*drain_server=*/1);
  }

  std::unique_ptr<sim::FaultInjector> injector;
  if (faults) {
    injector = std::make_unique<sim::FaultInjector>(bed.simulation(),
                                                    bed.fault_hooks());
    sim::FaultScheduleConfig schedule;
    schedule.seed = fault_seed;
    schedule.servers = nodes;
    schedule.nodes = nodes;
    schedule.horizon = units::Millis(48);
    schedule.crashes = 2;
    schedule.slow_episodes = 1;
    schedule.link_faults = 1;
    injector->ScheduleAll(sim::GenerateFaultSchedule(schedule));
  }

  mtc::UniformScheduler scheduler;
  mtc::RunnerConfig runner_config;
  runner_config.nodes = nodes;
  runner_config.cores_per_node = cores;
  runner_config.metrics = &metrics;
  runner_config.tracer = tracer.get();
  mtc::Runner runner(bed.simulation(), bed.vfs(), scheduler, runner_config);

  const mtc::WorkflowResult result = runner.Run(workflow);
  int exit_code = 0;
  if (!result.status.ok()) {
    // Keep reporting: the timeline up to the failure is exactly what a
    // monitor is for on a faulted run (the default run survives; crashes
    // with wipe can kill a workflow at replication 1).
    std::cerr << "workflow failed: " << result.status.ToString()
              << " — reporting the partial timeline\n";
    exit_code = 1;
  }
  mon.Finish();

  std::cout << "# " << workflow.name << " on " << nodes << " nodes, MemFS — "
            << mon.windows().size() << " windows of "
            << static_cast<double>(mon.interval()) / 1e3 << " us ("
            << mon.dropped_windows() << " dropped), " << mon.series().size()
            << " series\n";
  mon.PrintSummary(std::cout, csv);

  std::cout << "\n# symmetry audit (per-window balance across instances)\n";
  monitor::SymmetryAuditor auditor(mon);
  auditor.PrintSummary(std::cout, csv);

  // The sharded namespace's load-balance claim as one line: how far the
  // worst window's dentry placement strayed from symmetric, and when.
  const monitor::SymmetryReport meta_balance = auditor.Audit("meta.dentries");
  if (!meta_balance.windows.empty()) {
    sim::SimTime worst_start = 0;
    for (const monitor::BalanceStats& stats : meta_balance.windows) {
      if (stats.window == meta_balance.worst_skew_window) {
        worst_start = stats.start;
      }
    }
    std::cout << "metadata balance: " << meta_balance.instance_count
              << " dentry shards, worst-window skew "
              << Table::Num(meta_balance.worst_skew, 3) << " at "
              << Table::Num(static_cast<double>(worst_start) / 1e6, 2)
              << " ms, " << Table::Num(
                     100.0 * meta_balance.FractionWithinSkew(1.25), 1)
              << "% of windows within 1.25\n";
  }

  if (elastic) {
    const kv::Membership& membership = *bed.membership();
    const kv::MigratorProgress& progress = bed.migrator()->progress();
    std::cout << "\n# membership / migration\n"
              << "epoch=" << membership.epoch() << " migrating="
              << (membership.migrating() ? "yes" : "no") << " states=[";
    for (std::uint32_t s = 0; s < bed.storage()->server_count(); ++s) {
      std::cout << (s == 0 ? "" : " ") << s << ":"
                << kv::NodeStateName(membership.state(s));
    }
    std::cout << "]\nkeys_moved=" << progress.keys_moved << "/"
              << progress.keys_total << " bytes_moved=" << progress.bytes_moved
              << " sweeps=" << progress.sweeps
              << " failed_chunks=" << progress.failed_chunks << "\n";
    if (membership.migrating()) exit_code = 3;
  }

  monitor::SloWatchdog watchdog(mon);
  if (!no_default_slo) {
    (void)watchdog.AddRule("skew(kv.mem_bytes) < 1.25 for 95% of windows");
    // Vacuous under --metadata=append_log: the guard never fires without
    // per-shard dentry gauges.
    (void)watchdog.AddRule(
        "skew(meta.dentries) < 1.25 when sum(meta.dentries) > 1024 "
        "for 95% of windows");
    (void)watchdog.AddRule(
        "sum(vfs.write.rate) > 0 when sum(io.queued) > 0 for 100% of windows");
    if (elastic) {
      (void)watchdog.AddRule(
          "value(vfs.write.p99_ms) < 50 for 95% of windows");
    }
    if (incidents && !elastic) {
      (void)watchdog.AddRule("value(vfs.write.p99_ms) < " +
                             std::to_string(incident_p99_ms) +
                             " for 95% of windows");
    }
  }
  std::istringstream extra(slo_arg);
  std::string rule;
  while (std::getline(extra, rule, ';')) {
    if (rule.empty()) continue;
    std::string error;
    if (!watchdog.AddRule(rule, &error)) {
      std::cerr << "bad --slo rule '" << rule << "': " << error << "\n";
      return 2;
    }
  }
  std::vector<monitor::SloResult> slo_results;
  if (!watchdog.rules().empty()) {
    std::cout << "\n# SLO watchdog\n";
    slo_results = watchdog.Evaluate();
    monitor::SloWatchdog::PrintResults(slo_results, std::cout, csv,
                                       /*verbose=*/true, violations);
    for (const monitor::SloResult& r : slo_results) {
      if (!r.satisfied) exit_code = 3;
    }
  }

  if (incidents) {
    diagnose::FlightRecorder recorder(mon);
    recorder.SetSloResults(slo_results);
    recorder.SetTracer(tracer.get());
    if (injector != nullptr) recorder.SetFaults(injector->scheduled());
    const std::vector<diagnose::Incident> found = recorder.Diagnose();
    std::cout << "\n# incident flight recorder\n";
    diagnose::FlightRecorder::Print(found, std::cout);
    if (!incidents_json.empty()) {
      std::ofstream file(incidents_json, std::ios::binary);
      if (!file) {
        std::cerr << "cannot open " << incidents_json << " for writing\n";
        return 1;
      }
      diagnose::FlightRecorder::WriteJson(found, file);
      std::cout << "incident JSON written to " << incidents_json << "\n";
    }
  }

  if (!balance.empty()) {
    const monitor::SymmetryReport report = auditor.Audit(balance);
    if (report.windows.empty()) {
      std::cerr << "no balance windows for '" << balance
                << "' (need >= 2 instances)\n";
      return 2;
    }
    std::cout << "\n# balance timeline: " << balance << "\n";
    monitor::SymmetryAuditor::WriteTimelineCsv(report, std::cout);
  }

  if (!out.empty()) {
    std::ofstream file(out, std::ios::binary);
    if (!file) {
      std::cerr << "cannot open " << out << " for writing\n";
      return 1;
    }
    mon.WriteCsv(file);
    std::cout << "\ntimeline CSV (" << mon.windows().size()
              << " windows) written to " << out << "\n";
  }
  if (!json.empty()) {
    std::ofstream file(json, std::ios::binary);
    if (!file) {
      std::cerr << "cannot open " << json << " for writing\n";
      return 1;
    }
    mon.WriteJson(file);
    std::cout << "timeline JSON written to " << json << "\n";
  }
  return exit_code;
}

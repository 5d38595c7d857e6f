// memfs_run — run one workload on a simulated cluster and explain the run.
//
// Builds a workloads::Testbed from flags and attaches every observer: a
// metrics registry, the monitor with exemplar harvest, the tracer and the
// incident flight recorder, all of them digest-neutral. Prints a header
// with the event digest, then the workload's own tables (envelope:
// bandwidth; montage/blast: stages, critical path, per-server kv), the
// latency profile, the monitor's series summary, the symmetry audit,
// membership (--elastic), SLO verdicts and incidents. --out=DIR writes the
// run bundle: trace.json (Chrome trace_event), timeline.csv, incidents.json
// and balance_<family>.csv per per-server series family. Same flags, same
// bytes. Exit status: 0 ok, 1 workload failed (a workflow task or an
// envelope phase; wins over 3), 2 usage error, 3 SLO violation or uncommitted
// migration.
//
//   memfs_run --workload=envelope --nodes=64 --file-kb=1024
//   memfs_run --faults --metadata=sharded --out=run
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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
#include "trace/critical_path.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "workloads/blast.h"
#include "workloads/chaos.h"
#include "workloads/envelope.h"
#include "workloads/montage.h"
#include "workloads/testbed.h"

namespace {

using namespace memfs;  // NOLINT: binary-local brevity

constexpr const char* kHelp =
    R"(memfs_run — run one workload on a simulated cluster and explain it

  --workload=montage|blast|envelope   what to run          [montage]
  --fs=memfs|amfs|diskpfs             file system          [memfs]
  --fabric=ipoib|gbe|ec2|rdma         network preset       [ipoib]
  --nodes=N                           cluster size         [8]
  --cores=N                           cores per node       [8]
envelope:
  --file-kb=N                         file size in KiB     [1024]
  --files-per-proc=N                  files per process    [8]
  --io-block-kb=N                     call size (0=file)   [0]
montage / blast:
  --degree=6|12|16                    mosaic size          [6]
  --fragments=N                       BLAST db split       [512]
  --task-scale=N                      divide task count    [64]
  --size-scale=N                      divide file sizes    [16]
client:
  --stripe-kb=N                       stripe size          [512]
  --io-threads=N                      flush/prefetch pool  [8]
  --replication=N                     stripe copies        [1]
  --ketama                            consistent hashing
  --mount-per-process                 Fig. 10b deployment
  --metadata=append_log|sharded       namespace service    [append_log]
scenario:
  --faults                            seeded fault episodes
  --fault-seed=N                      fault schedule seed  [7]
  --elastic                           join + drain mid-run (memfs only)
  --slo=RULE[;RULE...]                SLO rules on top of the defaults
output:
  --out=DIR                           write the run bundle to DIR
  --csv                               CSV tables

Default SLO rules:
)";

enum class Workload { kEnvelope, kMontage, kBlast };

struct Options {
  Workload workload = Workload::kMontage;
  workloads::FsKind fs = workloads::FsKind::kMemFs;
  workloads::TestbedConfig config;
  std::uint32_t cores = 8;
  workloads::EnvelopeParams envelope;
  workloads::MontageParams montage;
  workloads::BlastParams blast;
  std::optional<std::uint64_t> fault_seed;  // set with --faults
  // The default SLO rules, then the --slo ones.
  std::vector<std::string> slo{std::begin(monitor::kDefaultSloRules),
                               std::end(monitor::kDefaultSloRules)};
  std::string out;
  bool csv = false;
};

// The value flag `name` names among `choices`; nullopt (after a usage
// message) for any other value.
template <typename T>
std::optional<T> Choose(FlagParser& flags, const char* name,
                        std::initializer_list<std::pair<const char*, T>>
                            choices) {
  const std::string value = flags.GetString(name, choices.begin()->first);
  for (const auto& [label, choice] : choices) {
    if (value == label) return choice;
  }
  std::cerr << "unknown --" << name << " value '" << value
            << "' (see --help)\n";
  return std::nullopt;
}

// Reads every flag; rejects unknown flags, unknown values and malformed
// --slo rules before anything is simulated. The first choice is the default.
std::optional<Options> ParseOptions(FlagParser& flags) {
  using workloads::Fabric;
  using workloads::FsKind;
  const auto workload = Choose<Workload>(flags, "workload",
                                         {{"montage", Workload::kMontage},
                                          {"blast", Workload::kBlast},
                                          {"envelope", Workload::kEnvelope}});
  const auto fs = Choose<FsKind>(flags, "fs",
                                 {{"memfs", FsKind::kMemFs},
                                  {"amfs", FsKind::kAmfs},
                                  {"diskpfs", FsKind::kDiskPfs}});
  const auto fabric = Choose<Fabric>(flags, "fabric",
                                     {{"ipoib", Fabric::kDas4Ipoib},
                                      {"gbe", Fabric::kDas4GbE},
                                      {"ec2", Fabric::kEc2TenGbE},
                                      {"rdma", Fabric::kRdma}});
  const auto metadata = Choose<meta::MetadataMode>(
      flags, "metadata",
      {{"append_log", meta::MetadataMode::kAppendLog},
       {"sharded", meta::MetadataMode::kSharded}});
  if (!workload || !fs || !fabric || !metadata) return std::nullopt;

  auto u32 = [&flags](const char* name, std::uint32_t fallback) {
    return static_cast<std::uint32_t>(flags.GetUint(name, fallback));
  };
  // A count or size the run divides by or places work on; 0 cannot run.
  bool zero = false;
  auto positive = [&](const char* name, std::uint32_t fallback) {
    const std::uint32_t value = u32(name, fallback);
    if (value == 0) {
      std::cerr << "--" << name << " must be at least 1 (see --help)\n";
      zero = true;
    }
    return value;
  };
  Options o;
  o.workload = *workload;
  o.fs = *fs;
  workloads::TestbedConfig& config = o.config;
  config.nodes = positive("nodes", config.nodes);
  config.fabric = *fabric;
  o.cores = positive("cores", o.cores);
  fs::MemFsConfig& client = config.memfs;
  client.stripe_size = units::KiB(positive("stripe-kb", 512));
  client.io_threads = u32("io-threads", client.io_threads);
  client.read_threads = client.io_threads;
  client.replication = u32("replication", client.replication);
  client.use_ketama = flags.GetBool("ketama");
  if (flags.GetBool("mount-per-process")) client.fuse.mounts_per_node = o.cores;
  client.metadata = *metadata;

  o.envelope.nodes = config.nodes;
  o.envelope.procs_per_node = o.cores;
  o.envelope.file_size = units::KiB(flags.GetUint("file-kb", 1024));
  o.envelope.files_per_proc = u32("files-per-proc", 8);
  o.envelope.io_block = units::KiB(flags.GetUint("io-block-kb", 0));
  o.montage.degree = u32("degree", o.montage.degree);
  o.blast.fragments = positive("fragments", o.blast.fragments);
  o.montage.task_scale = o.blast.task_scale = u32("task-scale", 64);
  o.montage.size_scale = o.blast.size_scale = flags.GetUint("size-scale", 16);

  const std::uint64_t fault_seed = flags.GetUint("fault-seed", 7);
  if (flags.GetBool("faults")) {
    o.fault_seed = fault_seed;
    config.kv_policy = workloads::ChaosPolicy();
  }
  config.elastic = flags.GetBool("elastic");
  if (config.elastic) config.standby_nodes = 1;  // hosts the joining server
  std::istringstream rules(flags.GetString("slo", ""));
  for (std::string rule; std::getline(rules, rule, ';');) {
    if (rule.empty()) continue;
    std::string error;
    if (!monitor::ParseSloRule(rule, &error)) {
      std::cerr << "bad --slo rule '" << rule << "': " << error << "\n";
      return std::nullopt;
    }
    o.slo.push_back(rule);
  }
  o.out = flags.GetString("out", "");
  o.csv = flags.GetBool("csv");
  if (zero) return std::nullopt;

  for (const std::string& unknown : flags.UnknownFlags()) {
    std::cerr << "unknown flag: --" << unknown << " (see --help)\n";
    return std::nullopt;
  }
  if (config.elastic && o.fs != FsKind::kMemFs) {
    std::cerr << "--elastic needs --fs=memfs\n";
    return std::nullopt;
  }
  return o;
}

// Runs the envelope phases; false (naming each on stderr) if any failed.
bool RunEnvelope(workloads::Testbed& bed, const Options& o, std::ostream& os) {
  workloads::EnvelopeBench bench(bed.simulation(), bed.vfs(), o.envelope,
                                 bed.amfs());
  // Phases run in row order: the write creates what the reads consume.
  const std::pair<const char*, workloads::PhaseResult> phases[] = {
      {"write", bench.RunWrite()},
      {"1-1 read", bench.RunRead11()},
      {"N-1 read", bench.RunReadN1()},
      {"create", bench.RunCreate(64)},
      {"open", bench.RunOpen()}};
  Table table({"metric", "bandwidth (MB/s)", "throughput (op/s)"});
  bool ok = true;
  for (std::size_t i = 0; i < std::size(phases); ++i) {
    const auto& [name, phase] = phases[i];
    const bool metadata = i >= 3;  // create and open move no data
    table.AddRow({name, metadata ? "-" : Table::Num(phase.BandwidthMBps()),
                  Table::Num(phase.OpsPerSec(), 0)});
    if (phase.status.ok()) continue;
    std::cerr << "envelope " << name << " phase failed: "
              << phase.status.ToString() << " — reporting the partial run\n";
    ok = false;
  }
  table.Print(os, o.csv);
  return ok;
}

// How the client spread RPCs over the servers, and where retries, breaker
// trips and batching concentrated.
void PrintServerTable(const kv::KvCluster& storage, std::ostream& os,
                      bool csv) {
  os << "\n# per-server kv activity\n";
  Table servers({"server", "single", "batches", "items", "ops/rpc", "retries",
                 "deadline", "breaker", "srv ops"});
  for (std::uint32_t s = 0; s < storage.server_count(); ++s) {
    const kv::KvClusterStats& client = storage.server_stats(s);
    const kv::KvServerStats& srv = storage.server(s).stats();
    const std::uint64_t rpcs = client.single_rpcs + client.batch_rpcs;
    const std::uint64_t ops = client.single_rpcs + client.batch_items;
    servers.AddRow(
        {Table::Int(s), Table::Int(client.single_rpcs),
         Table::Int(client.batch_rpcs), Table::Int(client.batch_items),
         Table::Num(rpcs == 0 ? 0.0
                              : static_cast<double>(ops) /
                                    static_cast<double>(rpcs),
                    2),
         Table::Int(client.retries), Table::Int(client.deadline_exceeded),
         Table::Int(client.breaker_opens),
         Table::Int(srv.sets + srv.adds + srv.gets + srv.appends +
                    srv.deletes)});
  }
  servers.Print(os, csv);
}

// Runs the Montage or BLAST DAG; false when the workflow failed.
bool RunWorkflow(workloads::Testbed& bed, const Options& o,
                 MetricsRegistry& metrics, trace::Tracer& tracer,
                 std::ostream& os) {
  const mtc::Workflow workflow = o.workload == Workload::kBlast
                                     ? workloads::BuildBlast(o.blast)
                                     : workloads::BuildMontage(o.montage);
  mtc::RunnerConfig config;
  config.nodes = o.config.nodes;
  config.cores_per_node = o.cores;
  config.metrics = &metrics;
  config.tracer = &tracer;
  mtc::UniformScheduler uniform;
  std::optional<mtc::LocalityScheduler> locality;
  if (bed.amfs() != nullptr) locality.emplace(*bed.amfs());
  mtc::Scheduler& scheduler =
      locality ? static_cast<mtc::Scheduler&>(*locality) : uniform;
  const mtc::WorkflowResult result =
      mtc::Runner(bed.simulation(), bed.vfs(), scheduler, config)
          .Run(workflow);

  os << workflow.name << ": " << workflow.tasks.size() << " tasks, "
     << Table::Num(static_cast<double>(workflow.TotalOutputBytes()) / 1e6)
     << " MB runtime data\n\n";
  Table stages({"stage", "tasks", "span (s)", "per-node MB/s"});
  for (const mtc::StageStats& stage : result.stages) {
    stages.AddRow({stage.stage, Table::Int(stage.tasks),
                   Table::Num(stage.SpanSeconds(), 2),
                   Table::Num(stage.PerCoreMBps() * o.cores)});
  }
  stages.Print(os, o.csv);
  os << "\nmakespan: " << Table::Num(result.MakespanSeconds(), 3) << " s, "
     << Table::Num(static_cast<double>(result.bytes_read) / 1e6, 1)
     << " MB read, "
     << Table::Num(static_cast<double>(result.bytes_written) / 1e6, 1)
     << " MB written, status: "
     << (result.status.ok() ? "ok" : result.status.ToString())
     << "\ntrace: " << tracer.spans_started() << " spans, "
     << tracer.open_spans() << " open, " << tracer.dropped_spans()
     << " dropped\n\n";
  trace::PrintCriticalPath(
      os, trace::ExtractCriticalPath(tracer, result.trace_id), o.csv);
  if (bed.storage() != nullptr) PrintServerTable(*bed.storage(), os, o.csv);
  if (!result.status.ok()) {
    std::cerr << "workflow failed: " << result.status.ToString()
              << " — reporting the partial run\n";
  }
  return result.status.ok();
}

// The sharded namespace's load-balance claim as one line: how far the worst
// window's dentry placement strayed from symmetric, and when.
void PrintMetadataBalance(const monitor::Monitor& mon, std::ostream& os) {
  const monitor::SymmetryReport report =
      monitor::SymmetryAuditor(mon).Audit("meta.dentries");
  if (report.windows.empty()) return;
  const sim::SimTime worst = mon.windows()[report.worst_skew_window].start;
  os << "metadata balance: " << report.instance_count
     << " dentry shards, worst-window skew " << Table::Num(report.worst_skew, 3)
     << " at " << Table::Num(static_cast<double>(worst) / 1e6, 2) << " ms, "
     << Table::Num(100.0 * report.FractionWithinSkew(1.25), 1)
     << "% of windows within 1.25\n";
}

// Prints the membership state; false while a transition is still open.
bool PrintMembership(workloads::Testbed& bed, std::ostream& os) {
  const kv::Membership& membership = *bed.membership();
  const kv::MigratorProgress& progress = bed.migrator()->progress();
  os << "\n# membership / migration\nepoch=" << membership.epoch()
     << " migrating=" << (membership.migrating() ? "yes" : "no")
     << " states=[";
  for (std::uint32_t s = 0; s < bed.storage()->server_count(); ++s) {
    os << (s == 0 ? "" : " ") << s << ":"
       << kv::NodeStateName(membership.state(s));
  }
  os << "]\nkeys_moved=" << progress.keys_moved << "/" << progress.keys_total
     << " bytes_moved=" << progress.bytes_moved
     << " sweeps=" << progress.sweeps
     << " failed_chunks=" << progress.failed_chunks << "\n";
  return !membership.migrating();
}

// Writes the run bundle into `dir`; false (after a message) when a file
// cannot be written.
bool WriteBundle(const std::string& dir, const trace::Tracer& tracer,
                 const monitor::Monitor& mon,
                 const std::vector<diagnose::Incident>& incidents) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  std::size_t files = 0;
  auto write = [&](const std::string& name, const auto& fill) {
    std::ofstream file(std::filesystem::path(dir) / name, std::ios::binary);
    if (file) fill(file);
    if (!file) std::cerr << "cannot write " << dir << "/" << name << "\n";
    files += file ? 1 : 0;
    return static_cast<bool>(file);
  };
  bool ok = write("trace.json", [&](std::ostream& os) {
    trace::WriteChromeTrace(os, tracer);
  });
  ok = write("timeline.csv", [&](std::ostream& os) { mon.WriteCsv(os); }) && ok;
  ok = write("incidents.json", [&](std::ostream& os) {
         diagnose::WriteJson(incidents, os);
       }) && ok;
  for (const monitor::SymmetryReport& report :
       monitor::SymmetryAuditor(mon).AuditAll()) {
    ok = write("balance_" + report.base + ".csv", [&](std::ostream& os) {
           monitor::SymmetryAuditor::WriteTimelineCsv(report, os);
         }) && ok;
  }
  if (ok) {
    std::cout << "\nrun bundle: " << files << " files written to " << dir
              << "\n";
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("help")) {
    std::cout << kHelp;
    for (const char* rule : monitor::kDefaultSloRules) {
      std::cout << "  " << rule << "\n";
    }
    return 0;
  }
  const std::optional<Options> parsed = ParseOptions(flags);
  if (!parsed) return 2;
  const Options& o = *parsed;

  MetricsRegistry metrics;
  workloads::TestbedConfig config = o.config;
  config.metrics = &metrics;
  workloads::Testbed bed(o.fs, config);
  sim::Simulation& sim = bed.simulation();
  monitor::Monitor mon(sim);
  monitor::AttachRunObservers(mon, metrics, bed.network());
  trace::Tracer tracer(sim);
  // --elastic: once the workload has ramped, the standby node joins and
  // server 1 drains, while the workload keeps issuing I/O.
  workloads::TransitionReport transitions;
  if (config.elastic) {
    workloads::RunTransitions(
        sim, *bed.membership(), *bed.migrator(),
        {{workloads::Transition::kJoin, config.nodes, units::Millis(6)},
         {workloads::Transition::kDrain, 1, units::Millis(6)}},
        transitions);
  }
  sim::FaultInjector injector(sim, bed.fault_hooks());
  if (o.fault_seed) {
    injector.ScheduleAll(sim::GenerateFaultSchedule(workloads::ChaosSchedule(
        *o.fault_seed, config.nodes, /*wipe_on_restart=*/true)));
  }

  // The workload's tables wait for the digest the header carries.
  std::ostringstream section;
  const bool ran = o.workload == Workload::kEnvelope
                      ? RunEnvelope(bed, o, section)
                      : RunWorkflow(bed, o, metrics, tracer, section);
  mon.Finish();

  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(sim.EventDigest()));
  int exit_code = 0;
  std::cout << "# memfs_run: " << ToString(o.fs) << " on " << config.nodes
            << " nodes, " << ToString(config.fabric) << ", digest " << digest
            << ", " << sim.events_processed() << " events\n\n"
            << section.str() << "\n# per-operation latency profile\n";
  metrics.Report(std::cout, o.csv);
  std::cout << "\n# monitor: " << mon.windows().size() << " windows of "
            << static_cast<double>(mon.interval()) / 1e3 << " us ("
            << mon.dropped_windows() << " dropped), " << mon.series().size()
            << " series\n";
  mon.PrintSummary(std::cout, o.csv);
  std::cout << "\n# symmetry audit (per-window balance across instances)\n";
  monitor::SymmetryAuditor(mon).PrintSummary(std::cout, o.csv);
  PrintMetadataBalance(mon, std::cout);
  if (config.elastic && !PrintMembership(bed, std::cout)) exit_code = 3;

  const diagnose::RunDiagnosis diagnosis =
      diagnose::DiagnoseRun(mon, o.slo, &tracer, injector.scheduled());
  std::cout << "\n# SLO watchdog\n";
  monitor::SloWatchdog::PrintResults(diagnosis.slo, std::cout, o.csv,
                                     /*verbose=*/true);
  for (const monitor::SloResult& result : diagnosis.slo) {
    if (!result.satisfied) exit_code = 3;
  }
  std::cout << "\n# incident flight recorder\n";
  diagnose::Print(diagnosis.incidents, std::cout);

  if (!o.out.empty() &&
      !WriteBundle(o.out, tracer, mon, diagnosis.incidents)) {
    return 1;
  }
  return ran ? exit_code : 1;
}

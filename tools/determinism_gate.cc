// determinism_gate — one table-driven determinism gate over workloads::Testbed.
//
// Rows are workloads on the paper's symmetric 8-node MemFS deployment;
// columns are the observers attached to them:
//
//   off      nothing attached;
//   traced   a trace::Tracer only;
//   metrics  a MetricsRegistry wired into every layer;
//   all      registry + monitor + exemplar harvest + tracer + flight recorder.
//
// Every cell runs twice on seed 7 and, on fault-scheduled rows, once more on
// seed 8. Generic checks, applied to every row:
//   * a same-seed rerun reproduces Simulation::EventDigest() — an
//     order-sensitive FNV-1a hash over every event's (time, sequence) — and
//     every export byte for byte (Chrome trace, monitor CSV, incident JSON);
//   * observers are neutral: traced, metrics and all each reproduce the
//     off column's digest, on seed 7 and on seed 8 (the registry records
//     each latency sample where its operation ends and awaits nothing);
//   * seed 8 changes the digest, so the digest covers the fault schedule;
//   * the SimChecker stays clean, traced runs close every span and untraced
//     runs record none.
// Per-row predicates hold the rest: the two pinned seed-7 digests, 16/16
// acknowledged writes read back intact, elastic commit, zero pending rename
// intents, the symmetry/SLO audit and the attributed incident.
//
// Usage: determinism_gate (no arguments). Exit status: 0 on pass, 1 on any
// failure. Registered as the `determinism_gate` ctest (label `determinism`).
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "diagnose/diagnose.h"
#include "meta/client.h"
#include "meta/meta.h"
#include "monitor/monitor.h"
#include "monitor/probes.h"
#include "monitor/slo.h"
#include "monitor/symmetry.h"
#include "mtc/runner.h"
#include "mtc/scheduler.h"
#include "sim/checker.h"
#include "sim/fault.h"
#include "sim/task.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "workloads/chaos.h"
#include "workloads/montage.h"
#include "workloads/testbed.h"

namespace memfs {
namespace {

using units::KiB;
using units::Millis;

constexpr std::uint32_t kNodes = 8;
constexpr std::uint32_t kFiles = 16;
constexpr std::uint64_t kSeed = 7;
constexpr std::uint64_t kOtherSeed = 8;

enum Column { kOff, kTraced, kMetrics, kAll, kColumns };
constexpr const char* kColumnNames[kColumns] = {"off", "traced", "metrics",
                                                "all"};

bool Traced(int column) { return column == kTraced || column == kAll; }

// Everything one run observed.
struct Facts {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::string checker;  // SimChecker summary; empty when clean
  // Exports a same-seed rerun must reproduce byte for byte.
  std::string spans;
  std::string csv;
  std::string incidents_json;
  std::uint64_t spans_started = 0;
  std::size_t open_spans = 0;
  // Workload outcome.
  std::uint32_t writes_ok = 0;     // acknowledged writes (churn ops: sharded)
  std::uint32_t reads_intact = 0;  // read back with the written bytes
  bool committed = false;          // elastic: join + drain committed
  bool setup_ok = false;           // sharded: /src and /dst built
  std::uint32_t pending_intents = 0;  // sharded: left after recovery
  bool workflow_ok = false;           // montage
  double makespan_s = 0;              // montage
  // Monitor and flight recorder verdicts (column `all`).
  bool windows_kept = false;    // >= 1 window retained, none dropped
  bool symmetry_audited = false;  // every kv.mem_bytes instance, >= 1 window
  bool slo_evaluated = false;   // default rules parsed, skew rule evaluated
  bool fault_attributed = false;  // an incident blames a faulted server
};

// One row's runs: [column] for the seed-7 run, its rerun and seed 8.
struct Grid {
  Facts first[kColumns];
  Facts rerun[kColumns];
  Facts other[kColumns];
  bool has_other = false;

  // Whether `holds` for every run of the row (seed-8 runs only if `seed8`).
  bool Every(const std::function<bool(const Facts&)>& holds,
             bool seed8 = true) const {
    for (int c = 0; c < kColumns; ++c) {
      if (!holds(first[c]) || !holds(rerun[c])) return false;
      if (seed8 && has_other && !holds(other[c])) return false;
    }
    return true;
  }
};

// --- Workloads ------------------------------------------------------------

// 16 files, one every 3 ms from round-robin nodes so the writes span every
// fault window, then read back and compared. On an elastic testbed a 9th
// server joins mid-traffic and server 2 drains.
void WriteAndReadBack(workloads::Testbed& bed, trace::Tracer* tracer,
                      Facts& facts) {
  const workloads::Wave wave{kFiles, KiB(256), Millis(3), "/audit_", 9000,
                             kNodes};
  workloads::WaveResult result;
  workloads::LaunchWave(bed.simulation(), bed.vfs(), wave, result, tracer);
  workloads::TransitionReport transitions;
  if (bed.membership() != nullptr) {
    workloads::RunTransitions(
        bed.simulation(), *bed.membership(), *bed.migrator(),
        {{workloads::Transition::kJoin, kNodes, Millis(10)},
         {workloads::Transition::kDrain, 2, Millis(8)}},
        transitions);
  }
  bed.simulation().Run();
  workloads::VerifyWave(bed.vfs(), wave, result, tracer);
  bed.simulation().Run();
  facts.committed = transitions.committed();
  facts.writes_ok = result.writes_ok();
  facts.reads_intact = result.Count(workloads::Verdict::kIntact);
}

sim::Task MakeChurnDirs(fs::Vfs& vfs, std::uint8_t& ok) {
  fs::VfsContext ctx{0, 0};
  const Status src = co_await vfs.Mkdir(ctx, "/src");
  const Status dst = co_await vfs.Mkdir(ctx, "/dst");
  ok = src.ok() && dst.ok();
}

// Create + write + seal a file, then (by index) a cross-directory rename, a
// hard link or an unlink, all racing the fault schedule.
sim::Task ChurnOne(sim::Simulation& sim, fs::Vfs& vfs, trace::Tracer* tracer,
                   sim::SimTime start, std::uint32_t node, std::uint32_t index,
                   std::uint8_t& ok) {
  co_await sim.Delay(start);
  const std::string src = "/src/f" + std::to_string(index);
  const fs::VfsContext ctx =
      workloads::RootContext(tracer, node, "churn " + src);
  auto created = co_await vfs.Create(ctx, src);
  if (created.ok()) {
    const Status wrote = co_await vfs.Write(
        ctx, created.value(), Bytes::Synthetic(KiB(64), 7000 + index));
    const Status closed = co_await vfs.Close(ctx, created.value());
    if (wrote.ok() && closed.ok()) {
      Status churned = Status::Ok();
      if (index % 2 == 0) {
        churned =
            co_await vfs.Rename(ctx, src, "/dst/g" + std::to_string(index));
      } else if (index % 3 == 0) {
        churned =
            co_await vfs.Link(ctx, src, "/src/l" + std::to_string(index));
      } else if (index % 5 == 0) {
        churned = co_await vfs.Unlink(ctx, src);
      }
      ok = churned.ok();
    }
  }
  trace::End(ctx.trace);
}

// Rolls surviving rename intents forward once the cluster is healthy again.
sim::Task RecoverIntents(meta::Client& client, std::uint32_t& pending) {
  for (int rounds = 0; client.pending_intents() > 0 && rounds < 16; ++rounds) {
    // unrecovered intents are retried next round
    (void)co_await client.RecoverPending(0, {});
  }
  pending = client.pending_intents();
}

// Pages through `dir`: deterministic read traffic over every index blob.
sim::Task SweepDir(fs::Vfs& vfs, trace::Tracer* tracer, std::string dir,
                   std::uint32_t node) {
  const fs::VfsContext ctx =
      workloads::RootContext(tracer, node, "sweep " + dir);
  fs::DirCursor cursor;
  while (true) {
    auto page = co_await vfs.ReadDirPage(ctx, dir, cursor, 16);
    if (!page.ok() || !page->more) break;
    cursor = page->next;
  }
  trace::End(ctx.trace);
}

// Namespace churn on the sharded metadata service under faults that keep
// RAM across restarts, then intent recovery (which must converge to zero
// pending intents) and a paged sweep of both directories.
void ChurnRecoverSweep(workloads::Testbed& bed, trace::Tracer* tracer,
                       Facts& facts) {
  sim::Simulation& sim = bed.simulation();
  fs::Vfs& vfs = bed.vfs();
  std::uint8_t setup_ok = 0;
  MakeChurnDirs(vfs, setup_ok);
  std::vector<std::uint8_t> churned(kFiles, 0);
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    ChurnOne(sim, vfs, tracer, Millis(1) + Millis(3) * i, i % kNodes, i,
             churned[i]);
  }
  sim.Run();

  facts.pending_intents = ~0u;
  RecoverIntents(*bed.memfs()->meta_client(), facts.pending_intents);
  sim.Run();

  SweepDir(vfs, tracer, "/src", 0);
  SweepDir(vfs, tracer, "/dst", 1);
  sim.Run();
  facts.setup_ok = setup_ok != 0;
  for (std::uint32_t i = 0; i < kFiles; ++i) facts.writes_ok += churned[i];
}

// A scaled-down healthy Montage: seconds of simulated work, not wall time.
void RunMontage(workloads::Testbed& bed, trace::Tracer* tracer,
                Facts& facts) {
  workloads::MontageParams params;
  params.degree = 6;
  params.task_scale = 256;
  params.size_scale = 64;
  mtc::UniformScheduler scheduler;
  mtc::RunnerConfig runner_config;
  runner_config.nodes = kNodes;
  runner_config.cores_per_node = 4;
  runner_config.metrics = bed.config().metrics;
  runner_config.tracer = tracer;
  mtc::Runner runner(bed.simulation(), bed.vfs(), scheduler, runner_config);
  const mtc::WorkflowResult result =
      runner.Run(workloads::BuildMontage(params));
  facts.workflow_ok = result.status.ok();
  facts.makespan_s = result.MakespanSeconds();
}

// --- The table ------------------------------------------------------------

enum class Faults { kNone, kWipe, kKeepRam };

struct Predicate {
  const char* what;
  std::function<bool(const Grid&)> holds;
};

struct Scenario {
  const char* name;
  void (*configure)(workloads::TestbedConfig&);  // null: as is
  // Runs the workload, feeding `tracer` (null when untraced).
  void (*drive)(workloads::Testbed&, trace::Tracer*, Facts&);
  Faults faults;
  std::uint64_t pin;  // seed-7 digest with observers off; 0 = not pinned
  std::vector<Predicate> checks;
};

bool AllIntact(const Facts& f) {
  return f.writes_ok == kFiles && f.reads_intact == kFiles;
}

const Predicate kIntact{
    "16/16 writes acknowledged and read back intact on seed 7",
    [](const Grid& g) { return g.Every(AllIntact, /*seed8=*/false); }};

std::vector<Scenario> Scenarios() {
  return {
      {"faulted", nullptr, WriteAndReadBack, Faults::kWipe,
       0xe6ee295ec4f3ef58ull,  // append_log metadata, batched io
       {kIntact,
        {"monitor kept every window and dropped none",
         [](const Grid& g) { return g.first[kAll].windows_kept; }},
        {"symmetry audit saw 8 kv.mem_bytes instances over >= 1 window",
         [](const Grid& g) { return g.first[kAll].symmetry_audited; }},
        {"SLO watchdog parsed the default rules and evaluated the skew rule",
         [](const Grid& g) { return g.first[kAll].slo_evaluated; }},
        {"an incident ranks a faulted server first, with an exemplar "
         "crossing it",
         [](const Grid& g) { return g.first[kAll].fault_attributed; }}}},
      {"faulted_unbatched",
       [](workloads::TestbedConfig& c) { c.memfs.io.batching = false; },
       WriteAndReadBack, Faults::kWipe,
       0xb93d9ba67442f623ull,  // one-item batch per op
       {kIntact}},
      {"elastic",
       [](workloads::TestbedConfig& config) {
         config.elastic = true;
         config.standby_nodes = 1;  // hosts the joining server
       },
       WriteAndReadBack, Faults::kWipe, 0,
       {kIntact,
        {"join + drain committed on every run",
         [](const Grid& g) {
           return g.Every([](const Facts& f) { return f.committed; });
         }}}},
      {"sharded",
       [](workloads::TestbedConfig& config) {
         config.memfs.metadata = meta::MetadataMode::kSharded;
       },
       ChurnRecoverSweep, Faults::kKeepRam, 0,
       {{"/src and /dst built and zero rename intents left on every run",
         [](const Grid& g) {
           return g.Every([](const Facts& f) {
             return f.setup_ok && f.pending_intents == 0;
           });
         }}}},
      {"montage", nullptr, RunMontage, Faults::kNone, 0,
       {{"workflow succeeds with one makespan under every observer set",
         [](const Grid& g) {
           return g.Every([&g](const Facts& f) {
             return f.workflow_ok && f.makespan_s == g.first[kOff].makespan_s;
           });
         }},
        {"the traced run recorded spans",
         [](const Grid& g) { return g.first[kTraced].spans_started > 0; }}}},
  };
}

// --- One run --------------------------------------------------------------

// Post-hoc analysis for column `all`: closes the timeline, audits symmetry,
// evaluates the SLO rules and runs the flight recorder over the faults.
void Diagnose(monitor::Monitor& mon, const trace::Tracer& tracer,
              const std::vector<sim::FaultEvent>& faults, Facts& facts) {
  mon.Finish();
  facts.windows_kept = !mon.windows().empty() && mon.dropped_windows() == 0;
  std::ostringstream csv;
  mon.WriteCsv(csv);
  facts.csv = csv.str();

  const monitor::SymmetryReport balance =
      monitor::SymmetryAuditor(mon).Audit("kv.mem_bytes");
  facts.symmetry_audited =
      balance.instance_count == kNodes && !balance.windows.empty();

  const diagnose::RunDiagnosis diagnosis = diagnose::DiagnoseRun(
      mon,
      {std::begin(monitor::kDefaultSloRules),
       std::end(monitor::kDefaultSloRules)},
      &tracer, faults);
  facts.slo_evaluated =
      diagnosis.slo.size() == std::size(monitor::kDefaultSloRules) &&
      diagnosis.slo[0].windows_evaluated > 0;
  const std::vector<diagnose::Incident>& incidents = diagnosis.incidents;
  std::ostringstream json;
  diagnose::WriteJson(incidents, json);
  facts.incidents_json = json.str();

  // Attributed: some exemplar's critical path was found, and some incident's
  // top cause is a server the schedule touched (a link fault implicates both
  // endpoints) with an exemplar trace crossing that server.
  std::set<std::uint32_t> faulted;
  for (const sim::FaultEvent& event : faults) {
    if (event.kind == sim::FaultKind::kLinkFault) {
      faulted.insert(event.src);
      faulted.insert(event.dst);
    } else {
      faulted.insert(event.server);
    }
  }
  bool path_found = false;
  bool crossed = false;
  for (const diagnose::Incident& incident : incidents) {
    for (const diagnose::ExemplarAttribution& exemplar : incident.exemplars) {
      path_found = path_found || exemplar.path.found;
    }
    if (incident.causes.empty()) continue;
    const std::uint32_t top = incident.causes.front().server;
    if (faulted.count(top) == 0) continue;
    for (const diagnose::ExemplarAttribution& exemplar : incident.exemplars) {
      crossed = crossed || exemplar.exemplar.sample.server == top;
      for (const diagnose::ServerPathShare& share : exemplar.by_server) {
        crossed = crossed || (share.server == top && share.nanos > 0);
      }
    }
  }
  facts.fault_attributed = path_found && crossed;
}

Facts RunOnce(const Scenario& row, int column, std::uint64_t seed) {
  MetricsRegistry registry;
  workloads::TestbedConfig config;
  config.nodes = kNodes;
  if (column == kMetrics || column == kAll) config.metrics = &registry;
  if (row.faults != Faults::kNone) {
    // The faulted deployment every fault-scheduled row runs on.
    config.memfs.replication = 2;
    config.kv_policy = workloads::ChaosPolicy();
  }
  if (row.configure != nullptr) row.configure(config);
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);
  sim::Simulation& sim = bed.simulation();
  sim::SimChecker checker(sim);
  // Built on every run, so an untraced run can show it recorded nothing.
  trace::Tracer tracer(sim);
  std::unique_ptr<monitor::Monitor> mon;
  if (column == kAll) {
    mon = std::make_unique<monitor::Monitor>(sim);
    monitor::AttachRunObservers(*mon, registry, bed.network());
  }
  sim::FaultInjector injector(sim, bed.fault_hooks());
  if (row.faults != Faults::kNone) {
    // Over the kNodes original servers: never the elastic row's joiner.
    injector.ScheduleAll(sim::GenerateFaultSchedule(workloads::ChaosSchedule(
        seed, kNodes, /*wipe_on_restart=*/row.faults == Faults::kWipe)));
  }

  Facts facts;
  row.drive(bed, Traced(column) ? &tracer : nullptr, facts);
  facts.digest = sim.EventDigest();
  facts.events = sim.events_processed();
  checker.Finish();
  facts.checker = checker.Summary();
  facts.spans_started = tracer.spans_started();
  facts.open_spans = tracer.open_spans();
  if (Traced(column)) {
    std::ostringstream spans;
    trace::WriteChromeTrace(spans, tracer);
    facts.spans = spans.str();
  }
  if (mon) Diagnose(*mon, tracer, injector.scheduled(), facts);
  return facts;
}

// --- The gate -------------------------------------------------------------

std::string Hex(std::uint64_t digest) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

class Gate {
 public:
  void Expect(bool ok, const std::string& where, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "FAIL: %s: %s\n", where.c_str(), what.c_str());
    failed_ = true;
  }
  bool failed() const { return failed_; }

 private:
  bool failed_ = false;
};

// Generic checks on one cell: its seed-7 run, the rerun and seed 8.
void CheckCell(Gate& gate, const std::string& where, const Facts& first,
               const Facts& rerun, const Facts* other, bool traced) {
  gate.Expect(first.digest == rerun.digest, where,
              "same-seed rerun changed the event digest");
  gate.Expect(first.spans == rerun.spans, where,
              "same-seed rerun changed the Chrome trace");
  gate.Expect(first.csv == rerun.csv, where,
              "same-seed rerun changed the monitor CSV");
  gate.Expect(first.incidents_json == rerun.incidents_json, where,
              "same-seed rerun changed the incident JSON");
  if (other != nullptr) {
    gate.Expect(first.digest != other->digest, where,
                "seed 8 left the digest unchanged: it does not cover the "
                "fault schedule");
  }
  for (const Facts* run : {&first, &rerun, other}) {
    if (run == nullptr) continue;
    gate.Expect(run->checker.empty(), where,
                "SimChecker findings:\n" + run->checker);
    gate.Expect(run->open_spans == 0, where, "spans left open");
    gate.Expect(traced || run->spans_started == 0, where,
                "an untraced run recorded spans");
  }
}

// Runs every cell of the table, prints one line per cell and applies the
// generic checks, then each row's neutrality, pin and predicates.
bool RunGate() {
  Gate gate;
  std::printf("%-18s %-8s %-16s %-16s %7s  %s\n", "scenario", "observer",
              "seed 7", "seed 8", "events", "acked/intact 7 | 8");
  for (const Scenario& row : Scenarios()) {
    Grid grid;
    grid.has_other = row.faults != Faults::kNone;
    for (int c = 0; c < kColumns; ++c) {
      grid.first[c] = RunOnce(row, c, kSeed);
      grid.rerun[c] = RunOnce(row, c, kSeed);
      if (grid.has_other) grid.other[c] = RunOnce(row, c, kOtherSeed);
      const Facts& first = grid.first[c];
      const Facts& other = grid.other[c];
      std::printf("%-18s %-8s %016llx %-16s %7llu  %u/%u | %u/%u\n",
                  row.name, kColumnNames[c],
                  static_cast<unsigned long long>(first.digest),
                  grid.has_other ? Hex(other.digest).c_str() : "-",
                  static_cast<unsigned long long>(first.events),
                  first.writes_ok, first.reads_intact, other.writes_ok,
                  other.reads_intact);
      CheckCell(gate, std::string(row.name) + "/" + kColumnNames[c], first,
                grid.rerun[c], grid.has_other ? &other : nullptr, Traced(c));
    }
    for (int c = kTraced; c < kColumns; ++c) {
      const std::string what =
          std::string(kColumnNames[c]) + " changed the event digest on seed ";
      gate.Expect(grid.first[c].digest == grid.first[kOff].digest, row.name,
                  what + "7");
      gate.Expect(!grid.has_other ||
                      grid.other[c].digest == grid.other[kOff].digest,
                  row.name, what + "8");
    }
    if (row.pin != 0) {
      gate.Expect(grid.first[kOff].digest == row.pin, row.name,
                  "seed-7 digest drifted from the pinned " + Hex(row.pin));
    }
    for (const Predicate& check : row.checks) {
      gate.Expect(check.holds(grid), row.name, check.what);
    }
  }
  return !gate.failed();
}

}  // namespace
}  // namespace memfs

int main() {
  if (!memfs::RunGate()) return 1;
  std::printf("determinism gate OK\n");
  return 0;
}

// Incident flight recorder: deterministic root-cause attribution from an
// SLO breach down to the one trace that explains it.
//
// The monitor (src/monitor) says *that* a window was bad; the tracer
// (src/trace) can say *why* one operation was slow — but only if something
// connects the two. This subsystem closes that loop:
//
//  1. Exemplars. Instrumented layers tag their worst latency samples with
//     the trace/span identity of the operation behind them
//     (common/metrics.h Exemplar); the monitor drains each histogram's
//     reservoir at every window close, so a bad window carries the ids of
//     the operations that made it bad.
//  2. Triggers. The recorder scans the closed run for SLO rule violations
//     (monitor/slo.h), circuit-breaker OPEN transitions (the "kv.breaker/N"
//     gauges), and migration stalls ("migrate.active" held while
//     "migrate.keys_moved" is flat). Violating windows coalesce into
//     incidents; breaker and stall triggers attach to an overlapping
//     incident or open their own.
//  3. Freeze + attribute. Each incident snapshots the gauge timeline slice
//     around the violation, the symmetry auditor's per-server balance
//     breakdown, the fault-schedule events overlapping it, and the exemplar
//     traces it harvested; the critical-path extractor then runs over each
//     exemplar's span subtree and a ranked per-server verdict is scored
//     from path shares, fault overlap, breaker state and balance extremes.
//
// Everything here is post-hoc analysis over already-recorded state: the
// recorder never schedules events, resumes coroutines, or draws randomness,
// so Simulation::EventDigest() is bit-identical with diagnosis on or off
// (the `determinism_gate` ctest pins this, together with byte-identical
// incident JSON across same-seed runs). All aggregation uses ordered
// containers; every ranking has a total, deterministic order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "monitor/monitor.h"
#include "monitor/slo.h"
#include "monitor/symmetry.h"
#include "sim/fault.h"
#include "trace/critical_path.h"
#include "trace/trace.h"

namespace memfs::diagnose {

// "No server": triggers and balance summaries that are not about one
// specific server use this (same sentinel as common/metrics.h exemplars).
inline constexpr std::uint32_t kNoServer = ~0u;

enum class TriggerKind : std::uint8_t {
  kSloViolation,
  kBreakerOpen,
  kMigrationStall,
};

std::string_view ToString(TriggerKind kind);

struct Trigger {
  TriggerKind kind = TriggerKind::kSloViolation;
  std::string detail;       // rule text / gauge name
  std::size_t window = 0;   // first firing window (index into windows())
  sim::SimTime at = 0;      // start of that window
  std::uint32_t server = kNoServer;  // breaker triggers: which server
  // Firing windows folded into this trigger (an SLO rule violated across a
  // whole episode is one trigger with windows == episode length).
  std::size_t windows = 1;
};

struct TimelinePoint {
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  double value = 0.0;  // NaN windows are omitted from the slice
};

// Frozen slice of one monitored series over the incident's padded range.
struct TimelineSlice {
  std::string series;
  std::vector<TimelinePoint> points;
};

// Per-server share of one exemplar's critical path, resolved through the
// nearest enclosing span carrying a "server" annotation (kv op spans).
struct ServerPathShare {
  std::uint32_t server = kNoServer;  // kNoServer = no kv span covers it
  sim::SimTime nanos = 0;
  double share = 0.0;  // of the exemplar operation's span window
};

// One harvested exemplar plus its critical-path attribution.
struct ExemplarAttribution {
  monitor::WindowExemplar exemplar;
  trace::CriticalPath path;  // subtree path; path.found false when the span
                             // fell out of the tracer's ring
  std::vector<ServerPathShare> by_server;  // nanos desc, server asc
};

// Balance verdict for the audited family (kv.mem_bytes) over the incident
// slice.
struct BalanceSummary {
  std::string family;
  double worst_skew = 1.0;           // max/mean, worst window in the slice
  std::size_t worst_window = 0;      // index into Monitor::windows()
  std::uint32_t hot_instance = kNoServer;  // instance holding the max there
};

// One ranked root-cause candidate with its supporting evidence.
struct CauseScore {
  std::uint32_t server = kNoServer;
  double score = 0.0;
  std::vector<std::string> evidence;
};

struct Incident {
  std::size_t id = 0;
  // Core violating range (window-aligned, half-open) and the padded slice.
  std::size_t first_window = 0;
  std::size_t last_window = 0;
  std::size_t slice_first = 0;
  std::size_t slice_last = 0;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  sim::SimTime slice_begin = 0;
  sim::SimTime slice_end = 0;

  std::vector<Trigger> triggers;
  std::vector<TimelineSlice> timeline;         // frozen gauge slice
  std::vector<monitor::BalanceStats> balance;  // per-window, slice range
  BalanceSummary balance_summary;
  std::vector<sim::FaultEvent> faults;         // overlapping the slice
  std::vector<ExemplarAttribution> exemplars;  // worst-first
  std::vector<CauseScore> causes;              // score desc, server asc
  std::string verdict;                         // one-line human summary
};

// Runs the critical-path extractor over one exemplar's span subtree and
// resolves per-server shares via "server" span annotations. Exposed for
// tests; Diagnose calls it per retained exemplar.
ExemplarAttribution AttributeExemplar(const trace::Tracer& tracer,
                                      const monitor::WindowExemplar& exemplar);

// Scores root-cause candidates for a frozen incident (exemplar path shares
// + fault overlap + breaker state + balance extremes). Exposed for tests.
std::vector<CauseScore> RankCauses(const Incident& incident);

// The flight recorder. Scans the monitor's retained windows and returns
// every frozen, attributed incident in onset order. `slo` holds evaluated
// SLO results, whose violations become primary triggers. `tracer` holds the
// spans the exemplars point into (optional: without it, exemplars freeze
// untraced and nothing is attributed). `faults` is the fault schedule in
// scheduling order (FaultInjector::scheduled(), or a hand-built list in
// tests). Read-only over all four; call after Monitor::Finish().
std::vector<Incident> Diagnose(const monitor::Monitor& monitor,
                               const std::vector<monitor::SloResult>& slo,
                               const trace::Tracer* tracer,
                               const std::vector<sim::FaultEvent>& faults);

// Human report: one block per incident (triggers, faults, balance, top
// exemplars, ranked causes, verdict).
void Print(const std::vector<Incident>& incidents, std::ostream& os);

// Deterministic JSON export — the byte stream `determinism_gate` compares
// across same-seed runs.
void WriteJson(const std::vector<Incident>& incidents, std::ostream& os);

// The verdicts of one finished run: SLO results, then the incidents the
// flight recorder froze from them.
struct RunDiagnosis {
  std::vector<monitor::SloResult> slo;  // one per rule that parsed
  std::vector<Incident> incidents;
};

// Evaluates `rules` over `monitor` (rules that fail to parse are skipped)
// and runs Diagnose over the same windows with `tracer` and the fault
// schedule `faults`. Call after Monitor::Finish().
RunDiagnosis DiagnoseRun(const monitor::Monitor& monitor,
                         const std::vector<std::string>& rules,
                         const trace::Tracer* tracer,
                         const std::vector<sim::FaultEvent>& faults);

}  // namespace memfs::diagnose

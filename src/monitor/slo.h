// SLO watchdog: declarative service-level rules over the monitor's windows.
//
// A rule is a line of text, checked against every closed window:
//
//   skew(kv.mem_bytes) < 1.25 for 95% of windows
//   cv(net.tx_util) <= 0.5
//   sum(io.inflight_batches) > 0 when sum(io.queued) > 0
//   value(kv.backlog/3) <= 64
//
// Grammar:   <term> <op> <number> [when <term> <op> <number>]
//                                 [for <pct>% of windows]
//   term:    fn(arg) with fn one of
//              value — a single series by full name
//              sum | max | min — aggregate across a family's instances
//              skew — max/mean across instances (SymmetryAuditor semantics)
//              cv   — coefficient of variation across instances
//              chi2 — chi-square against the uniform expectation
//   op:      <  <=  >  >=
//   when:    guard — windows where the guard is false are not evaluated
//            (this expresses the stall rule: "no window has ops queued and
//            no batch in flight" is `in_flight > 0 when queued > 0`)
//   for:     minimum fraction of evaluated windows that must pass
//            (default 100%)
//
// Windows where a needed series has no sample yet are skipped. The watchdog
// never mutates the run; it reads closed windows only, so it can be
// evaluated mid-run or after Finish().
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "monitor/monitor.h"

namespace memfs::monitor {

enum class SloFn : std::uint8_t { kValue, kSum, kMax, kMin, kSkew, kCv, kChi2 };
enum class SloOp : std::uint8_t { kLt, kLe, kGt, kGe };

struct SloTerm {
  SloFn fn = SloFn::kValue;
  std::string arg;  // series name (kValue) or family base (the rest)
};

struct SloCondition {
  SloTerm term;
  SloOp op = SloOp::kLt;
  double threshold = 0.0;
};

struct SloRule {
  std::string text;  // original rule text, for reports
  SloCondition condition;
  std::optional<SloCondition> guard;  // `when` clause
  double min_pass_fraction = 1.0;     // `for P% of windows`
};

// The rules every fully observed run is held to (memfs_run and the
// determinism gate): kv memory balance, sharded dentry balance (vacuous
// under append_log), the stall rule, and the write-latency bound on the
// gauge AttachWriteP99Probe (monitor/probes.h) publishes. The stall rule
// watches batches in flight, not write rate: io.queued also counts queued
// reads, so a healthy read phase has queued ops and no writes.
inline constexpr const char* kDefaultSloRules[] = {
    "skew(kv.mem_bytes) < 1.25 for 95% of windows",
    "skew(meta.dentries) < 1.25 when sum(meta.dentries) > 1024 "
    "for 95% of windows",
    "sum(io.inflight_batches) > 0 when sum(io.queued) > 0 for 100% of windows",
    "value(vfs.write.p99_ms) < 5 for 95% of windows",
};

// Parses a rule; on failure returns nullopt and, when `error` is non-null,
// stores a description of what went wrong.
std::optional<SloRule> ParseSloRule(std::string_view text,
                                    std::string* error = nullptr);

// One failing window: the term's value there, for the report.
struct SloViolation {
  std::size_t window = 0;  // index into Monitor::windows()
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  double value = 0.0;
};

struct SloResult {
  SloRule rule;
  std::size_t windows_evaluated = 0;  // guard true and all series present
  std::size_t windows_passed = 0;
  double pass_fraction = 1.0;
  bool satisfied = true;
  // No window was ever evaluated: the guard never matched, or a named
  // series does not exist. `satisfied` stays true (absence of evidence is
  // not a violation) but reports print VACUOUS instead of PASS — a rule
  // that never fires is usually a typo, not a healthy cluster.
  bool vacuous = false;
  double worst_value = 0.0;           // most-violating term value seen
  std::size_t worst_window = 0;
  std::vector<SloViolation> violations;  // every failing window, in order
};

class SloWatchdog {
 public:
  explicit SloWatchdog(const Monitor& monitor) : monitor_(&monitor) {}

  // Parses and registers a rule; false (with `error` set) on a parse error.
  bool AddRule(std::string_view text, std::string* error = nullptr);

  const std::vector<SloRule>& rules() const { return rules_; }

  // Checks every rule against the monitor's retained windows.
  std::vector<SloResult> Evaluate() const;

  // One row per rule (pass/fail, fractions, worst window); with `verbose`,
  // up to `max_violations` offending windows per failing rule follow.
  static void PrintResults(const std::vector<SloResult>& results,
                           std::ostream& os, bool csv, bool verbose = false,
                           std::size_t max_violations = 10);

 private:
  const Monitor* monitor_;
  std::vector<SloRule> rules_;
};

}  // namespace memfs::monitor

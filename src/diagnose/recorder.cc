#include "diagnose/diagnose.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "common/retry.h"
#include "common/units.h"

namespace memfs::diagnose {

namespace {

using monitor::Monitor;
using monitor::Window;

// Gauge value the kv client publishes while a breaker is open
// (kvstore mirrors CircuitBreaker::State into "kv.breaker/N").
constexpr double kBreakerOpen =
    static_cast<double>(CircuitBreaker::State::kOpen);

bool IsOpen(double value) { return value == kBreakerOpen; }

// Violating windows of one rule at most this many windows apart merge into
// one incident episode.
constexpr std::size_t kMergeGapWindows = 1;
// Frozen timeline slice = violating windows padded by this many windows on
// each side (context: the breaker that opened just before the breach).
constexpr std::size_t kContextWindows = 2;
// Per-instance gauge family summarized per incident by the symmetry
// auditor's balance statistics.
constexpr std::string_view kBalanceFamily = "kv.mem_bytes";
// Migration stall: "migrate.active" > 0 while "migrate.keys_moved" is
// unchanged for at least this many consecutive windows.
constexpr std::size_t kStallWindows = 8;
// Worst exemplars attributed per incident (distinct operations).
constexpr std::size_t kMaxExemplars = 4;

// Worst-first exemplar order across histograms (common/metrics.h keeps it
// per histogram; incidents merge several): larger sample first, then the
// usual deterministic tie-break, then histogram name.
bool WorseWindowExemplar(const monitor::WindowExemplar& a,
                         const monitor::WindowExemplar& b) {
  if (a.sample.nanos != b.sample.nanos) return a.sample.nanos > b.sample.nanos;
  if (a.sample.at != b.sample.at) return a.sample.at < b.sample.at;
  if (a.sample.trace_id != b.sample.trace_id) {
    return a.sample.trace_id < b.sample.trace_id;
  }
  if (a.sample.span_id != b.sample.span_id) {
    return a.sample.span_id < b.sample.span_id;
  }
  return a.histogram < b.histogram;
}

double Ms(sim::SimTime t) {
  return static_cast<double>(t) / static_cast<double>(units::kNanosPerMilli);
}

std::string FormatMs(sim::SimTime t) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", Ms(t));
  return buffer;
}

std::string FormatShare(double fraction) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.0f%%", 100.0 * fraction);
  return buffer;
}

std::string FormatSkew(double skew) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", skew);
  return buffer;
}

std::vector<Trigger> CollectTriggers(
    const Monitor& monitor, const std::vector<monitor::SloResult>& slo) {
  std::vector<Trigger> triggers;
  const std::deque<Window>& windows = monitor.windows();

  // 1. SLO violations: every failing window of every unsatisfied rule.
  for (const monitor::SloResult& result : slo) {
    if (result.satisfied) continue;
    for (const monitor::SloViolation& violation : result.violations) {
      Trigger trigger;
      trigger.kind = TriggerKind::kSloViolation;
      trigger.detail = result.rule.text;
      trigger.window = violation.window;
      trigger.at = violation.start;
      triggers.push_back(std::move(trigger));
    }
  }

  // 2. Breaker transitions to OPEN on any "kv.breaker/N" series.
  for (const std::size_t id : monitor.InstancesOf("kv.breaker")) {
    const monitor::SeriesInfo& info = monitor.series()[id];
    if (info.instance == monitor::kNoInstance) continue;
    double previous = 0.0;  // breakers start closed
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const double value = Monitor::Value(windows[w], id);
      if (std::isnan(value)) continue;
      if (IsOpen(value) && !IsOpen(previous)) {
        Trigger trigger;
        trigger.kind = TriggerKind::kBreakerOpen;
        trigger.detail = info.name;
        trigger.window = w;
        trigger.at = windows[w].start;
        trigger.server = info.instance;
        triggers.push_back(std::move(trigger));
      }
      previous = value;
    }
  }

  // 3. Migration stall: sweeps active but no key moved for a while.
  const std::size_t active_id = monitor.SeriesId("migrate.active");
  const std::size_t moved_id = monitor.SeriesId("migrate.keys_moved");
  if (active_id != monitor::kNoSeries && moved_id != monitor::kNoSeries) {
    std::size_t stalled = 0;
    double last_moved = 0.0;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const double active = Monitor::Value(windows[w], active_id);
      const double moved = Monitor::Value(windows[w], moved_id);
      if (std::isnan(active) || std::isnan(moved)) continue;
      const bool progress = moved != last_moved;
      last_moved = moved;
      if (active > 0 && !progress) {
        if (++stalled == kStallWindows) {
          Trigger trigger;
          trigger.kind = TriggerKind::kMigrationStall;
          trigger.detail = "migrate.active held, migrate.keys_moved flat";
          trigger.window = w;
          trigger.at = windows[w].start;
          triggers.push_back(std::move(trigger));
        }
      } else {
        stalled = 0;
      }
    }
  }

  std::sort(triggers.begin(), triggers.end(),
            [](const Trigger& a, const Trigger& b) {
              if (a.window != b.window) return a.window < b.window;
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.detail != b.detail) return a.detail < b.detail;
              return a.server < b.server;
            });
  return triggers;
}

Incident Freeze(const Monitor& monitor, const trace::Tracer* tracer,
                const std::vector<sim::FaultEvent>& faults, std::size_t id,
                std::size_t first_window, std::size_t last_window,
                std::vector<Trigger> triggers) {
  const std::deque<Window>& windows = monitor.windows();
  Incident incident;
  incident.id = id;
  incident.first_window = first_window;
  incident.last_window = last_window;
  incident.slice_first =
      first_window >= kContextWindows ? first_window - kContextWindows : 0;
  incident.slice_last =
      std::min(last_window + kContextWindows, windows.size() - 1);
  incident.begin = windows[first_window].start;
  incident.end = windows[last_window].end;
  incident.slice_begin = windows[incident.slice_first].start;
  incident.slice_end = windows[incident.slice_last].end;
  // Fold repeated firings of the same trigger (an SLO rule violating every
  // window of the episode) into one entry carrying the window count; the
  // entry keeps the first firing window. Ordered by first window, then the
  // trigger sort order.
  std::map<std::tuple<std::uint8_t, std::string, std::uint32_t>, Trigger>
      folded;
  for (Trigger& trigger : triggers) {
    const auto key = std::make_tuple(static_cast<std::uint8_t>(trigger.kind),
                                     trigger.detail, trigger.server);
    const auto it = folded.find(key);
    if (it == folded.end()) {
      folded.emplace(key, std::move(trigger));
    } else {
      ++it->second.windows;
    }
  }
  for (auto& [key, trigger] : folded) {
    incident.triggers.push_back(std::move(trigger));
  }
  std::sort(incident.triggers.begin(), incident.triggers.end(),
            [](const Trigger& a, const Trigger& b) {
              if (a.window != b.window) return a.window < b.window;
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.detail != b.detail) return a.detail < b.detail;
              return a.server < b.server;
            });

  // Series frozen into the timeline slice: everything each trigger points
  // at, the balance family, and every breaker gauge — ordered by series id.
  std::set<std::size_t> frozen;
  for (const Trigger& trigger : incident.triggers) {
    if (trigger.kind == TriggerKind::kSloViolation) {
      // The rule's term series: a single name or a whole family.
      const std::optional<monitor::SloRule> rule =
          monitor::ParseSloRule(trigger.detail);
      if (rule.has_value()) {
        const std::string& arg = rule->condition.term.arg;
        for (const std::size_t sid : monitor.InstancesOf(arg)) {
          frozen.insert(sid);
        }
        const std::size_t exact = monitor.SeriesId(arg);
        if (exact != monitor::kNoSeries) frozen.insert(exact);
      }
    } else if (trigger.kind == TriggerKind::kMigrationStall) {
      for (const char* name : {"migrate.active", "migrate.keys_moved",
                               "migrate.keys_total", "migrate.sweeps"}) {
        const std::size_t sid = monitor.SeriesId(name);
        if (sid != monitor::kNoSeries) frozen.insert(sid);
      }
    }
  }
  for (const std::size_t sid : monitor.InstancesOf(kBalanceFamily)) {
    frozen.insert(sid);
  }
  for (const std::size_t sid : monitor.InstancesOf("kv.breaker")) {
    frozen.insert(sid);
  }
  for (const std::size_t sid : frozen) {
    TimelineSlice slice;
    slice.series = monitor.series()[sid].name;
    for (std::size_t w = incident.slice_first; w <= incident.slice_last; ++w) {
      const double value = Monitor::Value(windows[w], sid);
      if (std::isnan(value)) continue;
      slice.points.push_back({windows[w].start, windows[w].end, value});
    }
    incident.timeline.push_back(std::move(slice));
  }

  // Per-window balance breakdown of the audited family over the slice.
  const std::vector<std::size_t> family = monitor.InstancesOf(kBalanceFamily);
  incident.balance_summary.family = kBalanceFamily;
  if (family.size() >= 2) {
    for (std::size_t w = incident.slice_first; w <= incident.slice_last; ++w) {
      const monitor::BalanceStats stats =
          monitor::SymmetryAuditor::Balance(windows[w], w, family);
      if (stats.instances < 2) continue;
      if (incident.balance.empty() ||
          stats.max_skew > incident.balance_summary.worst_skew) {
        incident.balance_summary.worst_skew = stats.max_skew;
        incident.balance_summary.worst_window = w;
        // Which instance holds the max in this window (ties: lowest).
        for (const std::size_t sid : family) {
          const double value = Monitor::Value(windows[w], sid);
          if (!std::isnan(value) && value == stats.max) {
            incident.balance_summary.hot_instance =
                monitor.series()[sid].instance;
            break;
          }
        }
      }
      incident.balance.push_back(stats);
    }
  }

  // Fault-schedule events active anywhere in the padded slice.
  incident.faults =
      sim::OverlappingFaults(faults, incident.slice_begin, incident.slice_end);

  // Worst exemplars harvested inside the slice, one per distinct operation.
  std::vector<monitor::WindowExemplar> candidates;
  for (std::size_t w = incident.slice_first; w <= incident.slice_last; ++w) {
    for (const monitor::WindowExemplar& exemplar : windows[w].exemplars) {
      candidates.push_back(exemplar);
    }
  }
  std::sort(candidates.begin(), candidates.end(), WorseWindowExemplar);
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (const monitor::WindowExemplar& exemplar : candidates) {
    if (incident.exemplars.size() >= kMaxExemplars) break;
    if (exemplar.sample.trace_id != 0 &&
        !seen.insert({exemplar.sample.trace_id, exemplar.sample.span_id})
             .second) {
      continue;  // same operation surfaced via several histograms
    }
    ExemplarAttribution attributed;
    if (tracer != nullptr && exemplar.sample.trace_id != 0) {
      attributed = AttributeExemplar(*tracer, exemplar);
    } else {
      attributed.exemplar = exemplar;
    }
    incident.exemplars.push_back(std::move(attributed));
  }

  incident.causes = RankCauses(incident);

  // One-line verdict: range, primary trigger, balance, top cause.
  std::string verdict = "window [" + FormatMs(incident.begin) + " ms, " +
                        FormatMs(incident.end) + " ms)";
  if (!incident.triggers.empty()) {
    verdict += ": " + std::string(ToString(incident.triggers.front().kind)) +
               " [" + incident.triggers.front().detail + "]";
  }
  if (!incident.balance.empty()) {
    verdict += "; skew(" + incident.balance_summary.family +
               ") = " + FormatSkew(incident.balance_summary.worst_skew);
  }
  if (!incident.causes.empty()) {
    const CauseScore& top = incident.causes.front();
    verdict += "; top cause server " + std::to_string(top.server);
    if (!top.evidence.empty()) verdict += " (" + top.evidence.front();
    for (std::size_t i = 1; i < top.evidence.size(); ++i) {
      verdict += "; " + top.evidence[i];
    }
    if (!top.evidence.empty()) verdict += ")";
  }
  incident.verdict = std::move(verdict);
  return incident;
}

}  // namespace

std::string_view ToString(TriggerKind kind) {
  switch (kind) {
    case TriggerKind::kSloViolation: return "slo";
    case TriggerKind::kBreakerOpen: return "breaker_open";
    case TriggerKind::kMigrationStall: return "migration_stall";
  }
  return "?";
}

std::vector<Incident> Diagnose(const monitor::Monitor& monitor,
                               const std::vector<monitor::SloResult>& slo,
                               const trace::Tracer* tracer,
                               const std::vector<sim::FaultEvent>& faults) {
  std::vector<Incident> incidents;
  if (monitor.windows().empty()) return incidents;
  const std::vector<Trigger> triggers = CollectTriggers(monitor, slo);
  if (triggers.empty()) return incidents;

  // Coalesce SLO-violation triggers into episodes: consecutive violating
  // windows (up to merge_gap_windows apart) are one incident.
  struct Episode {
    std::size_t first = 0;
    std::size_t last = 0;
    std::vector<Trigger> triggers;
  };
  std::vector<Episode> episodes;
  for (const Trigger& trigger : triggers) {
    if (trigger.kind != TriggerKind::kSloViolation) continue;
    if (!episodes.empty() &&
        trigger.window <= episodes.back().last + kMergeGapWindows) {
      episodes.back().last = std::max(episodes.back().last, trigger.window);
      episodes.back().triggers.push_back(trigger);
    } else {
      Episode episode;
      episode.first = episode.last = trigger.window;
      episode.triggers.push_back(trigger);
      episodes.push_back(std::move(episode));
    }
  }

  // Secondary triggers attach to an episode whose padded range covers them,
  // or open their own single-window incident.
  for (const Trigger& trigger : triggers) {
    if (trigger.kind == TriggerKind::kSloViolation) continue;
    bool attached = false;
    for (Episode& episode : episodes) {
      const std::size_t lo = episode.first >= kContextWindows
                                 ? episode.first - kContextWindows
                                 : 0;
      const std::size_t hi = episode.last + kContextWindows;
      if (trigger.window >= lo && trigger.window <= hi) {
        episode.triggers.push_back(trigger);
        attached = true;
        break;
      }
    }
    if (!attached) {
      Episode episode;
      episode.first = episode.last = trigger.window;
      episode.triggers.push_back(trigger);
      episodes.push_back(std::move(episode));
    }
  }
  std::sort(episodes.begin(), episodes.end(),
            [](const Episode& a, const Episode& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.last < b.last;
            });

  incidents.reserve(episodes.size());
  for (Episode& episode : episodes) {
    incidents.push_back(Freeze(monitor, tracer, faults, incidents.size(),
                               episode.first, episode.last,
                               std::move(episode.triggers)));
  }
  return incidents;
}

std::vector<CauseScore> RankCauses(const Incident& incident) {
  std::map<std::uint32_t, CauseScore> scores;
  const auto credit = [&scores](std::uint32_t server, double points,
                                std::string why) {
    if (server == kNoServer) return;
    CauseScore& entry = scores[server];
    entry.server = server;
    entry.score += points;
    entry.evidence.push_back(std::move(why));
  };

  // Exemplar critical paths: mean per-server share across attributed
  // exemplars, credited once per server with the strongest exemplar named.
  std::map<std::uint32_t, std::pair<double, std::size_t>> shares;
  std::size_t attributed = 0;
  for (const ExemplarAttribution& exemplar : incident.exemplars) {
    if (!exemplar.path.found) continue;
    ++attributed;
    for (const ServerPathShare& share : exemplar.by_server) {
      if (share.server == kNoServer) continue;
      auto& entry = shares[share.server];
      entry.first += share.share;
      ++entry.second;
    }
  }
  for (const auto& [server, entry] : shares) {
    const double mean_share =
        entry.first / static_cast<double>(attributed == 0 ? 1 : attributed);
    credit(server, mean_share,
           FormatShare(mean_share) +
               " of exemplar critical path on server " +
               std::to_string(server) + " (" + std::to_string(entry.second) +
               " segment groups)");
  }

  // Fault overlap: a crashed or slowed server is the prime suspect; a link
  // fault implicates both endpoints.
  for (const sim::FaultEvent& fault : incident.faults) {
    switch (fault.kind) {
      case sim::FaultKind::kServerCrash:
        credit(fault.server, 1.0, "concurrent " + sim::ToString(fault));
        break;
      case sim::FaultKind::kServerSlow:
        credit(fault.server, 1.0, "concurrent " + sim::ToString(fault));
        break;
      case sim::FaultKind::kLinkFault:
        credit(fault.src, 0.5, "concurrent " + sim::ToString(fault));
        credit(fault.dst, 0.5, "concurrent " + sim::ToString(fault));
        break;
    }
  }

  // Breaker OPEN in the slice: the client already condemned this server.
  for (const Trigger& trigger : incident.triggers) {
    if (trigger.kind != TriggerKind::kBreakerOpen) continue;
    credit(trigger.server, 0.5,
           trigger.detail + " OPEN at " + FormatMs(trigger.at) + " ms");
  }

  // Balance extreme: the instance holding the max of the audited family.
  if (incident.balance_summary.hot_instance != kNoServer &&
      incident.balance_summary.worst_skew > 1.0) {
    credit(incident.balance_summary.hot_instance, 0.25,
           incident.balance_summary.family + " max holder, skew " +
               FormatSkew(incident.balance_summary.worst_skew));
  }

  std::vector<CauseScore> ranked;
  ranked.reserve(scores.size());
  for (auto& [server, score] : scores) ranked.push_back(std::move(score));
  std::sort(ranked.begin(), ranked.end(),
            [](const CauseScore& a, const CauseScore& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.server < b.server;
            });
  return ranked;
}

RunDiagnosis DiagnoseRun(const monitor::Monitor& monitor,
                         const std::vector<std::string>& rules,
                         const trace::Tracer* tracer,
                         const std::vector<sim::FaultEvent>& faults) {
  monitor::SloWatchdog watchdog(monitor);
  for (const std::string& rule : rules) (void)watchdog.AddRule(rule);
  RunDiagnosis diagnosis;
  diagnosis.slo = watchdog.Evaluate();
  diagnosis.incidents = Diagnose(monitor, diagnosis.slo, tracer, faults);
  return diagnosis;
}

}  // namespace memfs::diagnose

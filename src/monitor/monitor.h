// Continuous cluster monitoring: a sim-clock-driven time-series sampler.
//
// Metrics (common/metrics.h) answer "how did the run do overall"; traces
// (src/trace) answer "where did one request's time go". Neither can show the
// paper's central claim — symmetrical striping keeps every server equally
// loaded — as behaviour *over time*. The monitor closes that gap: it slices
// simulated time into fixed-length windows and, at every window boundary,
// samples instantaneous cluster state (registry gauges and pull probes) and
// per-window activity (counter and histogram deltas) into a bounded ring of
// windows. The symmetry auditor (monitor/symmetry.h) and the SLO watchdog
// (monitor/slo.h) evaluate over that ring.
//
// Design rules, matching the tracer's neutrality discipline:
//  * Sampling is driven by sim::ClockObserver — the monitor is told when the
//    simulated clock is about to advance and closes every window boundary the
//    jump crosses. It never schedules events, resumes coroutines, or draws
//    randomness, so Simulation::EventDigest() is bit-identical with
//    monitoring on or off (the `determinism_gate` ctest pins this).
//  * Samples are taken before the first event of the new instant runs, so a
//    window [start, end) reflects exactly the events with time < end.
//  * Storage is a bounded ring: the newest `retention` windows are kept,
//    older ones are dropped and counted.
//
// Series come from three sources, all deterministic in registration order:
//  * registry gauges   — instantaneous state pushed by instrumented layers
//    (per-server kv memory/objects/queue depth, io lane occupancy, open
//    files, breaker state, ...), sampled as-is;
//  * registry counters and histogram counts — monotonic totals, recorded as
//    per-second rates over each window under "<name>.rate";
//  * pull probes — callbacks for layers without a registry (the network's
//    per-node byte counters, see monitor/probes.h).
//
// Per-instance series follow the InstanceGaugeName convention
// ("kv.mem_bytes/3"): the auditor groups series sharing a base name.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/units.h"
#include "sim/simulation.h"

namespace memfs::monitor {

inline constexpr std::uint32_t kNoInstance = ~0u;
inline constexpr std::size_t kNoSeries = ~std::size_t{0};

enum class SeriesKind : std::uint8_t {
  kGauge,  // instantaneous level at the window boundary
  kRate,   // per-second rate of a monotonic total over the window
};

struct SeriesInfo {
  std::string name;  // full name, e.g. "kv.mem_bytes/3"
  std::string base;  // name with the "/<instance>" suffix stripped
  std::uint32_t instance = kNoInstance;
  SeriesKind kind = SeriesKind::kGauge;
};

// One exemplar harvested at a window close: the worst samples one histogram
// recorded during the window, tagged with the trace identity of the request
// behind each (common/metrics.h Exemplar).
struct WindowExemplar {
  std::string histogram;  // histogram name, e.g. "vfs.write"
  Exemplar sample;
};

// One closed sampling window. `values` is indexed by series id; series that
// appeared after this window closed are absent (shorter vector) — use
// Monitor::Value, which reports NaN for them. `exemplars` is populated only
// when HarvestExemplars is enabled: per histogram the top-K worst samples
// recorded inside this window, histograms in name order, worst-first within
// each.
struct Window {
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  std::vector<double> values;
  std::vector<WindowExemplar> exemplars;
};

struct MonitorConfig {
  // Window length in simulated time. 1 ms resolves fault episodes (5-20 ms)
  // into many windows while keeping second-long runs in the low thousands.
  sim::SimTime interval = units::Millis(1);
  // Windows retained; the oldest are dropped (and counted) beyond this.
  std::size_t retention = 1u << 16;
};

class Monitor final : public sim::ClockObserver {
 public:
  // Attaches to `sim` as its clock observer; detaches on destruction.
  explicit Monitor(sim::Simulation& sim, MonitorConfig config = {});
  ~Monitor() override;

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  // Scrapes `registry` (caller-owned) at every window boundary: gauges as
  // levels, counters and histogram counts as per-second rates. New names
  // are picked up as they appear.
  void WatchRegistry(const MetricsRegistry* registry);

  // Drains every histogram's exemplar reservoir in `registry` (caller-owned,
  // mutable — TakeExemplars resets the reservoirs) into each closing window.
  // Usually the same registry as WatchRegistry; kept separate because
  // scraping is read-only while harvesting consumes. Harvesting never
  // schedules events or draws randomness, so digest-neutrality holds.
  void HarvestExemplars(MetricsRegistry* registry);

  // Pull probes for layers without a registry. The callback is invoked at
  // every window close; it must be read-only and deterministic. A rate
  // probe's callback returns a monotonic total; the recorded value is
  // delta / window seconds, scaled by `scale` (e.g. 1/bandwidth turns a
  // byte rate into link utilization).
  void AddGaugeProbe(std::string name, std::function<double()> probe);
  void AddRateProbe(std::string name, std::function<double()> probe,
                    double scale = 1.0);

  // sim::ClockObserver: closes every window boundary in (now, next].
  void OnClockAdvance(sim::SimTime next) override;

  // Closes the trailing partial window at the simulation's current time (if
  // it contains any elapsed time). Call once after the run, before reading
  // results; idempotent until time advances again.
  void Finish();

  const std::vector<SeriesInfo>& series() const { return series_; }
  const std::deque<Window>& windows() const { return windows_; }
  std::uint64_t windows_closed() const { return windows_closed_; }
  std::uint64_t dropped_windows() const { return dropped_windows_; }
  sim::SimTime interval() const { return config_.interval; }

  // Value of series `id` in `window`; NaN when the series did not exist yet.
  static double Value(const Window& window, std::size_t id);

  // Series id by full name (kNoSeries when unknown).
  std::size_t SeriesId(std::string_view name) const;

  // Ids of every "<base>/<instance>" series, ordered by instance — the
  // columns the symmetry auditor compares. A series named exactly `base`
  // (no instance suffix) is returned alone.
  std::vector<std::size_t> InstancesOf(std::string_view base) const;

  // Sorted unique base names (for reports iterating every audited family).
  std::vector<std::string> Bases() const;

  // Timeline export: one row per window, one column per series, in
  // series-id order; a series absent from a window is an empty cell. A
  // deterministic byte stream — the determinism_gate ctest compares it
  // across same-seed runs.
  void WriteCsv(std::ostream& os) const;

  // Per-series min/mean/max/last over the retained windows.
  void PrintSummary(std::ostream& os, bool csv) const;

 private:
  std::size_t SeriesIdFor(std::string_view name, SeriesKind kind);
  void CloseWindow(sim::SimTime end);

  struct Probe {
    std::size_t series = 0;
    std::function<double()> fn;
    SeriesKind kind = SeriesKind::kGauge;
    double scale = 1.0;
    double last = 0.0;  // previous total (rate probes)
  };

  sim::Simulation* sim_;
  MonitorConfig config_;
  const MetricsRegistry* registry_ = nullptr;
  MetricsRegistry* exemplar_registry_ = nullptr;
  std::vector<Probe> probes_;
  std::vector<SeriesInfo> series_;
  std::map<std::string, std::size_t, std::less<>> series_by_name_;
  // Previous totals for registry counters / histogram counts (by name —
  // registry maps are ordered, so iteration is deterministic).
  std::map<std::string, double, std::less<>> last_totals_;
  std::deque<Window> windows_;
  sim::SimTime window_start_ = 0;
  std::uint64_t windows_closed_ = 0;
  std::uint64_t dropped_windows_ = 0;
};

}  // namespace memfs::monitor

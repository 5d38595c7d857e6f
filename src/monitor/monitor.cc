#include "monitor/monitor.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <set>
#include <utility>

#include "common/stats.h"
#include "common/table.h"

namespace memfs::monitor {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Deterministic compact number formatting shared by the CSV export and the
// summary: integers print exactly, everything else as %.6g.
std::string FormatValue(double value) {
  if (std::floor(value) == value && std::fabs(value) < 9.007199254740992e15) {
    return std::to_string(static_cast<long long>(value));
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

const char* KindName(SeriesKind kind) {
  return kind == SeriesKind::kGauge ? "gauge" : "rate";
}

// Splits "kv.mem_bytes/3" into {"kv.mem_bytes", 3}; names without an
// all-digit "/<n>" suffix have no instance.
std::pair<std::string, std::uint32_t> SplitInstance(std::string_view name) {
  const auto slash = name.rfind('/');
  if (slash == std::string_view::npos || slash + 1 == name.size()) {
    return {std::string(name), kNoInstance};
  }
  std::uint32_t instance = 0;
  for (std::size_t i = slash + 1; i < name.size(); ++i) {
    const char c = name[i];
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      return {std::string(name), kNoInstance};
    }
    instance = instance * 10 + static_cast<std::uint32_t>(c - '0');
  }
  return {std::string(name.substr(0, slash)), instance};
}

}  // namespace

Monitor::Monitor(sim::Simulation& sim, MonitorConfig config)
    : sim_(&sim), config_(config) {
  if (config_.interval == 0) config_.interval = units::Millis(1);
  if (config_.retention == 0) config_.retention = 1;
  window_start_ = sim.now();
  sim.AttachClockObserver(this);
}

Monitor::~Monitor() {
  if (sim_->clock_observer() == this) sim_->AttachClockObserver(nullptr);
}

void Monitor::WatchRegistry(const MetricsRegistry* registry) {
  registry_ = registry;
}

void Monitor::HarvestExemplars(MetricsRegistry* registry) {
  exemplar_registry_ = registry;
}

std::size_t Monitor::SeriesIdFor(std::string_view name, SeriesKind kind) {
  const auto it = series_by_name_.find(name);
  if (it != series_by_name_.end()) return it->second;
  SeriesInfo info;
  info.name = std::string(name);
  auto [base, instance] = SplitInstance(name);
  info.base = std::move(base);
  info.instance = instance;
  info.kind = kind;
  const std::size_t id = series_.size();
  series_.push_back(std::move(info));
  series_by_name_.emplace(series_.back().name, id);
  return id;
}

void Monitor::AddGaugeProbe(std::string name, std::function<double()> probe) {
  Probe p;
  p.series = SeriesIdFor(name, SeriesKind::kGauge);
  p.fn = std::move(probe);
  p.kind = SeriesKind::kGauge;
  probes_.push_back(std::move(p));
}

void Monitor::AddRateProbe(std::string name, std::function<double()> probe,
                           double scale) {
  Probe p;
  p.series = SeriesIdFor(name, SeriesKind::kRate);
  p.fn = std::move(probe);
  p.kind = SeriesKind::kRate;
  p.scale = scale;
  probes_.push_back(std::move(p));
}

void Monitor::OnClockAdvance(sim::SimTime next) {
  while (window_start_ + config_.interval <= next) {
    CloseWindow(window_start_ + config_.interval);
  }
}

void Monitor::Finish() {
  const sim::SimTime now = sim_->now();
  while (window_start_ + config_.interval <= now) {
    CloseWindow(window_start_ + config_.interval);
  }
  if (now > window_start_) CloseWindow(now);
}

void Monitor::CloseWindow(sim::SimTime end) {
  // Register every name the registry currently knows before sizing the
  // sample vector, so all of them land in this window.
  if (registry_ != nullptr) {
    for (const auto& [name, value] : registry_->gauges()) {
      (void)value;
      (void)SeriesIdFor(name, SeriesKind::kGauge);
    }
    for (const auto& [name, value] : registry_->counters()) {
      (void)value;
      (void)SeriesIdFor(name + ".rate", SeriesKind::kRate);
    }
    for (const auto& [name, histogram] : registry_->all()) {
      (void)histogram;
      (void)SeriesIdFor(name + ".rate", SeriesKind::kRate);
    }
  }

  Window window;
  window.start = window_start_;
  window.end = end;
  window.values.assign(series_.size(), kNaN);
  const double seconds =
      static_cast<double>(end - window_start_) / 1e9;

  for (Probe& probe : probes_) {
    const double sampled = probe.fn();
    if (probe.kind == SeriesKind::kGauge) {
      window.values[probe.series] = sampled;
    } else {
      window.values[probe.series] =
          (sampled - probe.last) / seconds * probe.scale;
      probe.last = sampled;
    }
  }

  if (registry_ != nullptr) {
    auto rate = [this, seconds](const std::string& name,
                                double total) -> double {
      double& last = last_totals_[name];
      const double delta = total - last;
      last = total;
      return delta / seconds;
    };
    // A name can be missing from series_by_name_ when a probe callback
    // just created it (probes run between pre-registration and here, and
    // must not crash the run even when they break the read-only contract);
    // it gets registered — and sampled — from the next window on.
    for (const auto& [name, value] : registry_->gauges()) {
      const auto it = series_by_name_.find(name);
      if (it == series_by_name_.end()) continue;
      window.values[it->second] = static_cast<double>(value);
    }
    for (const auto& [name, value] : registry_->counters()) {
      const std::string series = name + ".rate";
      const auto it = series_by_name_.find(series);
      if (it == series_by_name_.end()) continue;
      window.values[it->second] = rate(series, static_cast<double>(value));
    }
    for (const auto& [name, histogram] : registry_->all()) {
      const std::string series = name + ".rate";
      const auto it = series_by_name_.find(series);
      if (it == series_by_name_.end()) continue;
      window.values[it->second] =
          rate(series, static_cast<double>(histogram.count()));
    }
  }

  if (exemplar_registry_ != nullptr) {
    // Registry maps are ordered, so harvest order — and therefore the
    // per-window exemplar layout — is deterministic.
    for (auto& [name, histogram] : exemplar_registry_->mutable_all()) {
      for (Exemplar& sample : histogram.TakeExemplars()) {
        window.exemplars.push_back(WindowExemplar{name, sample});
      }
    }
  }

  windows_.push_back(std::move(window));
  ++windows_closed_;
  window_start_ = end;
  while (windows_.size() > config_.retention) {
    windows_.pop_front();
    ++dropped_windows_;
  }
}

double Monitor::Value(const Window& window, std::size_t id) {
  if (id >= window.values.size()) return kNaN;
  return window.values[id];
}

std::size_t Monitor::SeriesId(std::string_view name) const {
  const auto it = series_by_name_.find(name);
  return it == series_by_name_.end() ? kNoSeries : it->second;
}

std::vector<std::size_t> Monitor::InstancesOf(std::string_view base) const {
  std::vector<std::pair<std::uint32_t, std::size_t>> found;
  for (std::size_t id = 0; id < series_.size(); ++id) {
    const SeriesInfo& info = series_[id];
    if (info.instance != kNoInstance && info.base == base) {
      found.emplace_back(info.instance, id);
    }
  }
  if (found.empty()) {
    const std::size_t exact = SeriesId(base);
    if (exact != kNoSeries) return {exact};
    return {};
  }
  std::sort(found.begin(), found.end());
  std::vector<std::size_t> ids;
  ids.reserve(found.size());
  for (const auto& [instance, id] : found) {
    (void)instance;
    ids.push_back(id);
  }
  return ids;
}

std::vector<std::string> Monitor::Bases() const {
  std::set<std::string> bases;
  for (const SeriesInfo& info : series_) {
    if (info.instance != kNoInstance) bases.insert(info.base);
  }
  return {bases.begin(), bases.end()};
}

void Monitor::WriteCsv(std::ostream& os) const {
  os << "start_ns,end_ns";
  for (const SeriesInfo& info : series_) os << ',' << info.name;
  os << '\n';
  for (const Window& window : windows_) {
    os << window.start << ',' << window.end;
    for (std::size_t id = 0; id < series_.size(); ++id) {
      os << ',';
      const double value = Value(window, id);
      if (!std::isnan(value)) os << FormatValue(value);
    }
    os << '\n';
  }
}

void Monitor::PrintSummary(std::ostream& os, bool csv) const {
  Table table({"series", "kind", "windows", "min", "mean", "max", "last"});
  for (std::size_t id = 0; id < series_.size(); ++id) {
    RunningStats stats;
    double last = kNaN;
    for (const Window& window : windows_) {
      const double value = Value(window, id);
      if (std::isnan(value)) continue;
      stats.Add(value);
      last = value;
    }
    if (stats.count() == 0) continue;
    table.AddRow({series_[id].name, KindName(series_[id].kind),
                  Table::Int(stats.count()), FormatValue(stats.min()),
                  FormatValue(stats.mean()), FormatValue(stats.max()),
                  FormatValue(last)});
  }
  table.Print(os, csv);
}

}  // namespace memfs::monitor

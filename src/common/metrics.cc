#include "common/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/table.h"

namespace memfs {

namespace {

// Upper bounds grow by ~sqrt(2): 1, 2, 3, 4, 6, 8, 11, 16, ... The table is
// built once; lookups binary-search it.
const std::array<std::uint64_t, LatencyHistogram::kBuckets>& Bounds() {
  static const auto bounds = [] {
    std::array<std::uint64_t, LatencyHistogram::kBuckets> out{};
    double value = 1.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint64_t>(std::llround(value));
      if (i > 0 && out[i] <= out[i - 1]) out[i] = out[i - 1] + 1;
      value *= std::sqrt(2.0);
    }
    return out;
  }();
  return bounds;
}

}  // namespace

std::uint64_t LatencyHistogram::BucketUpperBound(std::size_t bucket) {
  return Bounds()[std::min(bucket, kBuckets - 1)];
}

std::size_t LatencyHistogram::BucketFor(std::uint64_t nanos) {
  const auto& bounds = Bounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), nanos);
  if (it == bounds.end()) return kBuckets - 1;
  return static_cast<std::size_t>(it - bounds.begin());
}

void LatencyHistogram::Record(std::uint64_t nanos) {
  ++buckets_[BucketFor(nanos)];
  ++count_;
  sum_ += nanos;
  min_ = std::min(min_, nanos);
  max_ = std::max(max_, nanos);
}

namespace {

// Worst-first order with a fully deterministic tie-break: larger sample
// first; among equals the one that completed earlier, then the smaller
// trace id, then the smaller span id.
bool WorseExemplar(const Exemplar& a, const Exemplar& b) {
  if (a.nanos != b.nanos) return a.nanos > b.nanos;
  if (a.at != b.at) return a.at < b.at;
  if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
  return a.span_id < b.span_id;
}

}  // namespace

void LatencyHistogram::Record(std::uint64_t nanos, const Exemplar& exemplar) {
  Record(nanos);
  if (exemplar.trace_id == 0) return;  // no span to link the sample to
  Exemplar sample = exemplar;
  sample.nanos = nanos;
  if (exemplars_.size() == kExemplarCapacity &&
      !WorseExemplar(sample, exemplars_.back())) {
    return;  // not among the worst K of this window
  }
  const auto at = std::upper_bound(exemplars_.begin(), exemplars_.end(),
                                   sample, WorseExemplar);
  exemplars_.insert(at, sample);
  if (exemplars_.size() > kExemplarCapacity) exemplars_.pop_back();
}

std::vector<Exemplar> LatencyHistogram::TakeExemplars() {
  std::vector<Exemplar> out;
  out.swap(exemplars_);
  return out;
}

double LatencyHistogram::PercentileNanos(double q) const {
  if (count_ == 0) return 0.0;
  // The interpolation below returns bucket upper bounds; at the extremes the
  // exact answer is known, and ceil(0 * count) == 0 would otherwise match the
  // first non-empty bucket for q = 0.
  if (q <= 0.0) return static_cast<double>(min_);
  if (q >= 1.0) return static_cast<double>(max_);
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= target && buckets_[b] > 0) {
      // Clamp the bucket bound into the observed range for tighter tails.
      return static_cast<double>(
          std::clamp(BucketUpperBound(b), min_, max_));
    }
  }
  return static_cast<double>(max_);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

LatencyHistogram& MetricsRegistry::Histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), LatencyHistogram{}).first;
  }
  return it->second;
}

std::uint64_t& MetricsRegistry::Counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), 0).first;
  }
  return it->second;
}

std::uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::int64_t& MetricsRegistry::Gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), 0).first;
  }
  return it->second;
}

std::int64_t MetricsRegistry::GaugeValue(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

std::string InstanceGaugeName(std::string_view base, std::uint32_t instance) {
  std::string name(base);
  name += '/';
  name += std::to_string(instance);
  return name;
}

void MetricsRegistry::Report(std::ostream& os, bool csv) const {
  Table table({"operation", "count", "mean (us)", "p50 (us)", "p90 (us)",
               "p99 (us)", "max (us)"});
  for (const auto& [name, histogram] : histograms_) {
    table.AddRow({name, Table::Int(histogram.count()),
                  Table::Num(histogram.MeanNanos() / 1e3),
                  Table::Num(histogram.PercentileNanos(0.50) / 1e3),
                  Table::Num(histogram.PercentileNanos(0.90) / 1e3),
                  Table::Num(histogram.PercentileNanos(0.99) / 1e3),
                  Table::Num(static_cast<double>(histogram.max_nanos()) /
                             1e3)});
  }
  table.Print(os, csv);
  if (!counters_.empty()) {
    Table events({"counter", "value"});
    for (const auto& [name, value] : counters_) {
      if (value != 0) events.AddRow({name, Table::Int(value)});
    }
    events.Print(os, csv);
  }
  bool any_gauge = false;
  for (const auto& [name, value] : gauges_) {
    (void)name;
    if (value != 0) any_gauge = true;
  }
  if (any_gauge) {
    Table levels({"gauge", "value"});
    for (const auto& [name, value] : gauges_) {
      if (value != 0) levels.AddRow({name, std::to_string(value)});
    }
    levels.Print(os, csv);
  }
}

}  // namespace memfs

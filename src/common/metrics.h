// Operation-latency instrumentation.
//
// LatencyHistogram is a log-bucketed histogram over nanosecond latencies
// (buckets grow by ~sqrt(2), covering 1 ns to ~100 s in 74 buckets), cheap
// enough to record every simulated operation. MetricsRegistry keys
// histograms by operation name; the storage layer and the MemFS client
// record into one when configured, and `micro_latency_profile` prints the
// resulting percentile table — the per-op breakdown behind every aggregate
// number in the reproduced figures.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace memfs {

// No storage server is associated with this sample (vfs-level exemplars).
inline constexpr std::uint32_t kNoExemplarServer = ~0u;

// One exemplar: a recorded sample plus the identity of the request behind
// it, in the Prometheus-exemplar sense — enough to jump from an aggregate
// (a histogram, a breached SLO window) to the one trace that explains it.
// Ids are plain integers so common/ stays free of trace dependencies; they
// are the trace::TraceId / trace::SpanId of the operation's span.
struct Exemplar {
  std::uint64_t nanos = 0;     // the recorded sample value
  std::uint64_t trace_id = 0;  // 0 = sample carries no trace identity
  std::uint64_t span_id = 0;   // span rooted at the sampled operation
  std::uint32_t node = 0;      // node that issued the operation
  std::uint32_t server = kNoExemplarServer;  // storage server (kv-level ops)
  std::uint64_t at = 0;        // simulated time the sample completed
};

class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 74;
  // Worst samples retained between exemplar harvests (the monitor drains
  // the reservoir at every window close, so this is the per-window top-K).
  static constexpr std::size_t kExemplarCapacity = 8;

  void Record(std::uint64_t nanos);

  // Records the sample and, when `exemplar` carries a trace id (0 = no
  // trace identity), offers it to the exemplar reservoir: the
  // kExemplarCapacity worst samples since the last TakeExemplars() are
  // kept, ordered worst-first with a deterministic tie-break (earlier
  // completion first, then smaller trace id, then smaller span id) so
  // same-seed runs produce identical exemplar sets.
  void Record(std::uint64_t nanos, const Exemplar& exemplar);

  // Drains the reservoir: returns the retained exemplars worst-first and
  // resets it for the next window.
  std::vector<Exemplar> TakeExemplars();

  const std::vector<Exemplar>& exemplars() const { return exemplars_; }

  std::uint64_t count() const { return count_; }
  std::uint64_t min_nanos() const { return count_ ? min_ : 0; }
  std::uint64_t max_nanos() const { return max_; }
  double MeanNanos() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  // Approximate quantile (bucket upper bound interpolation); q in [0, 1].
  double PercentileNanos(double q) const;

  void Merge(const LatencyHistogram& other);

  // Bucket upper bound in nanoseconds (exposed for tests).
  static std::uint64_t BucketUpperBound(std::size_t bucket);

 private:
  static std::size_t BucketFor(std::uint64_t nanos);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
  // Worst samples since the last harvest, kept sorted worst-first; empty
  // until the first Record() with a traced exemplar, so untraced recording
  // paths never touch it.
  std::vector<Exemplar> exemplars_;
};

class MetricsRegistry {
 public:
  // Returns the histogram for `name`, creating it on first use. References
  // stay valid for the registry's lifetime.
  LatencyHistogram& Histogram(std::string_view name);

  // Monotonic event counter for `name` (retries, breaker trips, failovers,
  // read repairs, injected faults, ...), created at zero on first use.
  // References stay valid for the registry's lifetime.
  std::uint64_t& Counter(std::string_view name);

  // Value of a counter without creating it (0 when absent).
  std::uint64_t CounterValue(std::string_view name) const;

  // Instantaneous-state gauge for `name` (queue depth, memory bytes, open
  // files, breaker state, ...), created at zero on first use. Unlike a
  // counter a gauge goes up and down: set it by assignment, adjust it with
  // +=/-=. The monitor's sampler (src/monitor) scrapes every gauge at each
  // window boundary. References stay valid for the registry's lifetime.
  std::int64_t& Gauge(std::string_view name);

  // Value of a gauge without creating it (0 when absent).
  std::int64_t GaugeValue(std::string_view name) const;

  const std::map<std::string, LatencyHistogram, std::less<>>& all() const {
    return histograms_;
  }
  // Mutable view for exemplar harvesters (the monitor drains every
  // histogram's reservoir at window close). Same deterministic map order
  // as all().
  std::map<std::string, LatencyHistogram, std::less<>>& mutable_all() {
    return histograms_;
  }
  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::int64_t, std::less<>>& gauges() const {
    return gauges_;
  }

  // Aligned percentile table (name, count, mean, p50, p90, p99, max in µs),
  // followed by the nonzero counters.
  void Report(std::ostream& os, bool csv = false) const;

 private:
  std::map<std::string, LatencyHistogram, std::less<>> histograms_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, std::int64_t, std::less<>> gauges_;
};

// Naming convention for per-instance series: one gauge per (kind, instance)
// pair, e.g. "kv.mem_bytes/3" for server 3. The monitor's symmetry auditor
// groups gauges sharing a base name by this convention.
std::string InstanceGaugeName(std::string_view base, std::uint32_t instance);

// Null-safe helpers for the gauge pointers instrumented layers cache at
// construction (nullptr when no registry is attached): one branch on the
// uninstrumented path, matching the tracer's null-context discipline.
inline void GaugeAdd(std::int64_t* gauge, std::int64_t delta) {
  if (gauge != nullptr) *gauge += delta;
}
inline void GaugeSet(std::int64_t* gauge, std::int64_t value) {
  if (gauge != nullptr) *gauge = value;
}

}  // namespace memfs

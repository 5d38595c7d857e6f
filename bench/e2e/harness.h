// Shared pieces of memfs_bench: the run modes, the per-run report a child
// process hands back to the parent, and the host-side probes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace memfs::bench {

// One child process runs one workload once, in one of three modes.
enum class Mode : std::uint8_t {
  kPlain,        // TimedVfs on, tracing off: the end-to-end numbers
  kUndecorated,  // TimedVfs renames paths only: the neutrality reference
  kTraced,       // TimedVfs on, request tracer and latency registry on
};

// How the parent treats a reported value.
enum class ValueKind : char {
  kSim = 's',      // simulated result: identical in every plain and traced run
  kCount = 'c',    // deterministic count of this mode: identical across reps
  kHost = 'h',     // host measurement: summarised by median, min and max
  kNeutral = 'n',  // also identical in the undecorated run
};

struct ReportValue {
  std::string name;
  ValueKind kind = ValueKind::kSim;
  std::string text;  // numbers in %.17g, keys in hex
};

// A child's result: named values plus gate failures, one per line on the
// child's stdout ("<kind> <name> <text>" and "! <message>").
class RunReport {
 public:
  void Add(std::string name, ValueKind kind, double value);
  void AddKey(std::string name, ValueKind kind, std::uint64_t key);
  void Fail(std::string message) { errors_.push_back(std::move(message)); }

  const std::vector<ReportValue>& values() const { return values_; }
  const std::vector<std::string>& errors() const { return errors_; }

  void Write(std::ostream& os) const;
  // Parses Write()'s output; false on a malformed line.
  bool Parse(const std::string& text);

 private:
  std::vector<ReportValue> values_;
  std::vector<std::string> errors_;
};

// Host wall clock in seconds (monotonic; only differences are meaningful).
double HostSeconds();
// Peak resident set of this process, MiB.
double PeakRssMib();
// Global operator new calls so far in this process.
std::uint64_t HeapAllocs();
// Host time of a fixed kernel of hash-map updates and lookups, binary-heap
// pushes and pops and small allocations, the kinds of work the simulator
// does: a measure of how fast the host runs right now.
double ProbeSeconds();
// wall_s scales each rep by the fastest probe within this many reps of it.
inline constexpr std::size_t kProbeWindow = 2;
// That fastest nearby probe on the reference host, a 4-vCPU Xeon VM: the
// median over the reps of 80 runs of 20 s (0.150 s; 0.159 s over the
// noisier runs in results/). wall_s is reported in seconds of that host.
inline constexpr double kProbeReferenceSeconds = 0.150;

// Span categories whose critical-path share is reported as cp.<category>;
// the rest of the path is reported as cp.other.
const std::vector<std::string>& PathCategories();

// Names accepted by --workload, in round-robin order.
const std::vector<std::string>& WorkloadNames();

// Runs `workload` once in this process and reports it. Unknown names yield
// a report holding one error.
RunReport RunWorkload(const std::string& workload, std::uint64_t seed,
                      Mode mode);

}  // namespace memfs::bench

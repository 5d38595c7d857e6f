// memfs_bench: the repository's end-to-end benchmark.
//
//   memfs_bench [--workload=NAME|all] [--seed=N] [--reps=N] [--seconds=S]
//               [--trace=0|1] [--json=PATH]
//
// Runs each selected workload (montage, blast, envelope_small, faulted; see
// README.md) in fresh child processes: at least --reps plain reps, and more
// until --seconds of host time have passed, interleaved round-robin across
// workloads so that a slow spell on the host hits every workload alike.
// With --trace=1 (the default), each workload then gets one undecorated
// run (the neutrality gate) and one traced run (the critical-path shares and
// the tracing-neutrality gate); --trace=0 measures the plain reps only.
// Before each plain rep the parent times a fixed probe kernel, by which
// wall_s is scaled to seconds of the reference host (see Summarise).
//
// Prints per-workload tables of the end-to-end metrics (the reported value,
// which is the median over the plain reps, with their minimum and maximum)
// and the per-layer metrics; --json writes all of it, per-rep values
// included.
// Exit status: 0 when every correctness gate passed, 1 when one failed or a
// child crashed (the JSON still records why), 2 on a usage error or an
// unwritable --json.
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/table.h"
#include "harness.h"

extern char** environ;

namespace memfs::bench {

double HostSeconds() {
  // lint: allow(nondeterminism) the benchmark measures host time
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {
std::uint64_t g_probe_sink = 0;  // keeps the probe's work observable
}  // namespace

double ProbeSeconds() {
  const double start = HostSeconds();
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t acc = 0;
  // Looked up by key only, never iterated.
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::vector<std::unique_ptr<std::uint64_t[]>> blocks(4096);
  for (int round = 0; round < 3; ++round) {
    map.clear();
    for (std::uint64_t i = 0; i < 200000; ++i) map[next() % 1000000] += i;
    for (int i = 0; i < 400000; ++i) {
      auto it = map.find(next() % 1000000);
      if (it != map.end()) acc += it->second;
    }
    for (int i = 0; i < 300000; ++i) {
      heap.push(next());
      if (heap.size() > 50000) {
        acc += heap.top();
        heap.pop();
      }
    }
    for (std::uint64_t i = 0; i < 300000; ++i) {
      auto& block = blocks[next() % blocks.size()];
      block.reset(new std::uint64_t[8 + next() % 24]);
      block[0] = i;
      acc += block[0];
    }
  }
  g_probe_sink += acc;
  return HostSeconds() - start;
}

void RunReport::Add(std::string name, ValueKind kind, double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  values_.push_back({std::move(name), kind, text});
}

void RunReport::AddKey(std::string name, ValueKind kind, std::uint64_t key) {
  char text[32];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(key));
  values_.push_back({std::move(name), kind, text});
}

void RunReport::Write(std::ostream& os) const {
  for (const auto& v : values_) {
    os << static_cast<char>(v.kind) << ' ' << v.name << ' ' << v.text << '\n';
  }
  for (const auto& e : errors_) os << "! " << e << '\n';
}

bool RunReport::Parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 2 || line[1] != ' ') return false;
    if (line[0] == '!') {
      errors_.push_back(line.substr(2));
      continue;
    }
    const std::size_t space = line.find(' ', 2);
    if (space == std::string::npos) return false;
    values_.push_back({line.substr(2, space - 2),
                       static_cast<ValueKind>(line[0]),
                       line.substr(space + 1)});
  }
  return true;
}

namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

// The end-to-end metrics, as a user of the simulated system and of the
// simulator sees them. BENCHMARK.json holds their bounds. The last two are
// the inputs of wall_s: the measured rep times and the probe times (see
// Summarise).
const std::vector<MetricDef>& EndToEnd() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},           {"wall_s", "s"},
      {"peak_rss_mib", "MiB"},    {"sim_s", "s"},
      {"app_MBps", "MB/s"},       {"file_write_p50_ms", "ms"},
      {"file_write_p99_ms", "ms"}, {"file_read_p50_ms", "ms"},
      {"file_read_p99_ms", "ms"}, {"meta_p50_us", "us"},
      {"meta_p99_us", "us"},      {"ok_op_ratio", "ratio"},
      {"storage_skew", "ratio"},  {"host_wall_s", "s"},
      {"probe_s", "s"}};
  return defs;
}

const std::vector<MetricDef>& PerLayer() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"sim.events", "count"},
        {"sim.events_per_s", "1/s"},
        {"sim.heap_allocs_per_event", "ratio"},
        {"vfs.calls", "count"},
        {"net.bytes_per_app_byte", "ratio"},
        {"net.dropped_messages", "count"},
        {"kvstore.rpcs_per_vfs_call", "ratio"},
        {"kvstore.ops_skew", "ratio"},
        {"kvstore.get_hit_ratio", "ratio"},
        {"kvstore.get.mean_us", "us"},
        {"kvstore.set.mean_us", "us"},
        {"kvstore.retries", "count"},
        {"kvstore.deadline_exceeded", "count"},
        {"kvstore.breaker_opens", "count"},
        {"kvstore.breaker_fast_fails", "count"},
        {"io.batches", "count"},
        {"io.batch_fill", "ratio"},
        {"io.max_batch", "count"},
        {"memfs.create.mean_us", "us"},
        {"memfs.open.mean_us", "us"},
        {"memfs.read.mean_us", "us"},
        {"memfs.write.mean_us", "us"},
        {"memfs.close.mean_us", "us"},
        {"memfs.stripe_sets", "count"},
        {"memfs.stripe_gets", "count"},
        {"memfs.fuse_requests", "count"},
        {"memfs.cache_hit_ratio", "ratio"},
        {"memfs.prefetch_issued", "count"},
        {"memfs.degraded_writes", "count"},
        {"memfs.replica_failovers", "count"},
        {"memfs.write_failovers", "count"},
        {"memfs.read_repairs", "count"},
        {"mtc.core_util", "ratio"},
        {"mtc.stage.mProjectPP.span_share", "ratio"},
        {"mtc.stage.mDiffFit.span_share", "ratio"},
        {"mtc.stage.mBackground.span_share", "ratio"},
        {"mtc.stage.formatdb.span_share", "ratio"},
        {"mtc.stage.blastall.span_share", "ratio"},
        {"envelope.write_host_share", "ratio"},
        {"envelope.read11_host_share", "ratio"},
        {"envelope.readn1_host_share", "ratio"},
        {"envelope.create_host_share", "ratio"},
        {"envelope.open_host_share", "ratio"},
        {"envelope.write_MBps", "MB/s"},
        {"envelope.read11_MBps", "MB/s"},
        {"envelope.readn1_MBps", "MB/s"},
        {"envelope.create_ops", "1/s"},
        {"envelope.open_ops", "1/s"},
        {"trace.spans", "count"},
        {"trace.overhead", "ratio"},
    };
    for (const auto& category : PathCategories()) {
      d.push_back({"cp." + category, "share"});
    }
    d.push_back({"cp.other", "share"});
    return d;
  }();
  return defs;
}

const char* kModeNames[] = {"plain", "undecorated", "traced"};

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = 1;
  std::uint32_t reps = 5;
  double seconds = 0.0;
  bool trace = true;
  std::string json;
};

bool ParseUnsigned(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

// Runs one workload once in a fresh process (this binary, --child mode) and
// parses its report. A crash or a malformed report becomes an error.
RunReport SpawnChild(const std::string& workload, std::uint64_t seed,
                     Mode mode) {
  RunReport report;
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    report.Fail("pipe() failed");
    return report;
  }
  std::vector<std::string> args = {
      "memfs_bench", std::string("--child=") +
                         kModeNames[static_cast<int>(mode)],
      "--workload=" + workload, "--seed=" + std::to_string(seed)};
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  std::string output;
  if (spawned == 0) {
    char buffer[4096];
    ssize_t got = 0;
    while ((got = read(pipe_fds[0], buffer, sizeof(buffer))) > 0) {
      output.append(buffer, static_cast<std::size_t>(got));
    }
  }
  close(pipe_fds[0]);
  if (spawned != 0) {
    report.Fail("posix_spawn failed");
    return report;
  }
  int wait_status = 0;
  while (waitpid(pid, &wait_status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
    report.Fail(workload + " " + kModeNames[static_cast<int>(mode)] +
                " child exited abnormally (status " +
                std::to_string(wait_status) + ")");
    return report;
  }
  if (!report.Parse(output)) report.Fail("malformed child report");
  return report;
}

const ReportValue* Find(const RunReport& report, const std::string& name) {
  for (const auto& v : report.values()) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

double Number(const std::string& text) {
  return std::strtod(text.c_str(), nullptr);
}

// A metric over the plain reps. The reported value is the median; every
// simulated value is identical in all reps, so only host measurements vary.
struct Summary {
  double value = 0.0;  // median
  double min = 0.0;
  double max = 0.0;
  std::vector<double> reps;  // in run order
};

Summary Summarize(std::vector<double> values) {
  Summary s;
  if (values.empty()) return s;
  s.reps = values;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.value = n % 2 == 1 ? values[n / 2]
                       : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  s.min = values.front();
  s.max = values.back();
  return s;
}

// Everything measured for one workload.
struct WorkloadResult {
  std::string name;
  std::vector<RunReport> plain;
  std::vector<double> probes;  // ProbeSeconds() before each plain rep
  RunReport undecorated;
  RunReport traced;
  bool has_traced = false;
  std::vector<std::string> errors;
  std::map<std::string, Summary> summaries;
};

// The correctness gates that compare runs with each other.
void CheckRuns(WorkloadResult& w) {
  auto collect = [&w](const RunReport& report, const std::string& label) {
    for (const auto& e : report.errors()) w.errors.push_back(label + ": " + e);
  };
  for (std::size_t i = 0; i < w.plain.size(); ++i) {
    collect(w.plain[i], "rep " + std::to_string(i));
  }
  if (w.has_traced) {
    collect(w.undecorated, "undecorated run");
    collect(w.traced, "traced run");
  }
  if (w.plain.empty()) return;
  const RunReport& first = w.plain.front();

  // Same seed, same simulated results and counts in every rep.
  for (std::size_t i = 1; i < w.plain.size(); ++i) {
    for (const auto& v : first.values()) {
      if (v.kind == ValueKind::kHost) continue;
      const ReportValue* other = Find(w.plain[i], v.name);
      if (other == nullptr || other->text != v.text) {
        w.errors.push_back("rep " + std::to_string(i) +
                           " differs from rep 0 in " + v.name);
      }
    }
  }
  if (!w.has_traced) return;
  // Decorator neutrality: TimedVfs changes no simulated result.
  for (const auto& v : first.values()) {
    if (v.kind != ValueKind::kNeutral) continue;
    const ReportValue* other = Find(w.undecorated, v.name);
    if (other == nullptr || other->text != v.text) {
      w.errors.push_back("undecorated run differs in " + v.name);
    }
  }
  // Tracing changes no simulated result either.
  for (const auto& v : first.values()) {
    if (v.kind != ValueKind::kSim && v.kind != ValueKind::kNeutral) continue;
    const ReportValue* other = Find(w.traced, v.name);
    if (other == nullptr || other->text != v.text) {
      w.errors.push_back("traced run differs in " + v.name);
    }
  }
}

void Summarise(WorkloadResult& w) {
  std::map<std::string, std::vector<double>> series;
  for (const auto& report : w.plain) {
    for (const auto& v : report.values()) {
      series[v.name].push_back(Number(v.text));
    }
  }
  if (w.has_traced) {
    for (const auto& v : w.traced.values()) {
      if (series.count(v.name) == 0) series[v.name].push_back(Number(v.text));
    }
  }
  for (auto& [name, values] : series) w.summaries[name] = Summarize(values);
  // wall_s is in seconds of the reference host: each rep's wall time is
  // scaled by how much slower than on that host the probes around it ran,
  // then the median is taken. A slow spell on a shared host lasts minutes
  // and slows the probe and the workload alike, so the scaling takes it
  // out. The fastest probe within kProbeWindow reps stands for the host's
  // speed at a rep: a probe is short, and its slower samples are mostly
  // noise of its own (README.md).
  w.summaries["host_wall_s"] = w.summaries["wall_s"];
  w.summaries["probe_s"] = Summarize(w.probes);
  const double host_wall = w.summaries["host_wall_s"].value;
  std::vector<double> scaled;
  for (std::size_t i = 0; i < w.plain.size() && i < w.probes.size(); ++i) {
    const ReportValue* rep_wall = Find(w.plain[i], "wall_s");
    if (rep_wall == nullptr) continue;
    const auto first = w.probes.begin() +
                       static_cast<std::ptrdiff_t>(
                           i > kProbeWindow ? i - kProbeWindow : 0);
    const auto last = w.probes.begin() +
                      static_cast<std::ptrdiff_t>(std::min(
                          w.probes.size(), i + kProbeWindow + 1));
    scaled.push_back(Number(rep_wall->text) * kProbeReferenceSeconds /
                     *std::min_element(first, last));
  }
  w.summaries["wall_s"] = Summarize(scaled);
  const Summary& wall = w.summaries["wall_s"];
  if (wall.value > 0.0) {
    w.summaries["sim.events_per_s"] =
        Summarize({w.summaries["sim.events"].value / wall.value});
  }
  if (w.has_traced && host_wall > 0.0) {
    if (const ReportValue* traced_wall = Find(w.traced, "wall_s")) {
      w.summaries["trace.overhead"] =
          Summarize({Number(traced_wall->text) / host_wall});
    }
  }
}

double Value(const WorkloadResult& w, const std::string& name) {
  auto it = w.summaries.find(name);
  return it == w.summaries.end() ? 0.0 : it->second.value;
}

std::uint64_t Attempted(const WorkloadResult& w) {
  std::uint64_t total = 0;
  for (const auto& report : w.plain) {
    if (const ReportValue* v = Find(report, "vfs.calls")) {
      total += static_cast<std::uint64_t>(Number(v->text));
    }
  }
  return total;
}

std::uint64_t Failed(const WorkloadResult& w) {
  std::uint64_t total = 0;
  for (const auto& report : w.plain) {
    for (const char* name : {"vfs.failed", "vfs.mismatches"}) {
      if (const ReportValue* v = Find(report, name)) {
        total += static_cast<std::uint64_t>(Number(v->text));
      }
    }
  }
  return total;
}

void PrintTables(std::ostream& os, const WorkloadResult& w) {
  os << "\n== " << w.name << ": " << w.plain.size() << " plain reps"
     << (w.has_traced ? " + 1 undecorated + 1 traced run" : "") << " ==\n";
  Table e2e({"metric", "value (median)", "min", "max", "unit"});
  for (const auto& def : EndToEnd()) {
    auto it = w.summaries.find(def.name);
    if (it == w.summaries.end()) continue;
    e2e.AddRow({def.name, Table::Num(it->second.value, 6),
                Table::Num(it->second.min, 6), Table::Num(it->second.max, 6),
                def.unit});
  }
  e2e.PrintText(os);
  os << "samples: file_write " << Value(w, "samples.file_write")
     << ", file_read " << Value(w, "samples.file_read") << ", meta "
     << Value(w, "samples.meta") << "; calls " << Value(w, "vfs.calls")
     << "\n";
  Table layers({"per-layer metric", "value", "unit"});
  for (const auto& def : PerLayer()) {
    layers.AddRow({def.name, Table::Num(Value(w, def.name), 6), def.unit});
  }
  layers.PrintText(os);
  for (const auto& e : w.errors) os << "GATE FAILED: " << e << "\n";
}

void WriteMetricGroup(std::ostream& os, const WorkloadResult& w,
                      const std::vector<MetricDef>& defs) {
  os << "{";
  bool first = true;
  for (const auto& def : defs) {
    auto it = w.summaries.find(def.name);
    const Summary s = it == w.summaries.end() ? Summary{} : it->second;
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s\n        \"%s\": {\"value\": %.17g, \"min\": %.17g, "
                  "\"max\": %.17g, \"unit\": \"%s\", \"reps\": [",
                  first ? "" : ",", def.name.c_str(), s.value, s.min, s.max,
                  def.unit.c_str());
    os << line;
    for (std::size_t i = 0; i < s.reps.size(); ++i) {
      std::snprintf(line, sizeof(line), "%s%.17g", i == 0 ? "" : ", ",
                    s.reps[i]);
      os << line;
    }
    os << "]}";
    first = false;
  }
  os << "\n      }";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void WriteJson(std::ostream& os, const Options& options,
               const std::vector<WorkloadResult>& results, bool correct) {
  os << "{\n  \"seed\": " << options.seed << ",\n  \"correct\": "
     << (correct ? "true" : "false") << ",\n  \"workloads\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& w = results[i];
    os << (i == 0 ? "" : ",") << "\n    " << JsonString(w.name) << ": {\n"
       << "      \"reps\": " << w.plain.size() << ",\n"
       << "      \"traced\": " << (w.has_traced ? "true" : "false") << ",\n"
       << "      \"correct\": " << (w.errors.empty() ? "true" : "false")
       << ",\n      \"attempted\": " << Attempted(w)
       << ",\n      \"failed\": " << Failed(w) << ",\n      \"errors\": [";
    for (std::size_t e = 0; e < w.errors.size(); ++e) {
      os << (e == 0 ? "" : ", ") << JsonString(w.errors[e]);
    }
    os << "],\n      \"samples\": {\"file_write\": "
       << Value(w, "samples.file_write")
       << ", \"file_read\": " << Value(w, "samples.file_read")
       << ", \"meta\": " << Value(w, "samples.meta") << "},\n"
       << "      \"end_to_end\": ";
    WriteMetricGroup(os, w, EndToEnd());
    os << ",\n      \"per_layer\": ";
    WriteMetricGroup(os, w, PerLayer());
    os << "\n    }";
  }
  os << "\n  }\n}\n";
}

void Usage() {
  std::cerr << "usage: memfs_bench [--workload=NAME|all] [--seed=N] "
               "[--reps=N] [--seconds=S] [--trace=0|1] [--json=PATH]\n"
               "workloads:";
  for (const auto& name : WorkloadNames()) std::cerr << " " << name;
  std::cerr << "\n";
}

int RunChildMode(const std::string& mode_name, const std::string& workload,
                 std::uint64_t seed) {
  // A child must not outlive the parent that reads its report.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  Mode mode = Mode::kPlain;
  if (mode_name == "undecorated") {
    mode = Mode::kUndecorated;
  } else if (mode_name == "traced") {
    mode = Mode::kTraced;
  } else if (mode_name != "plain") {
    return 2;
  }
  RunWorkload(workload, seed, mode).Write(std::cout);
  std::cout.flush();
  return 0;
}

int RunParent(const Options& options) {
  const double start = HostSeconds();
  std::vector<WorkloadResult> results(options.workloads.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].name = options.workloads[i];
  }
  // Plain reps, round-robin over workloads.
  std::uint32_t rounds = 0;
  while (rounds < options.reps ||
         (options.seconds > 0.0 && HostSeconds() - start < options.seconds)) {
    for (auto& w : results) {
      std::cerr << "memfs_bench: " << w.name << " rep " << rounds << "\n";
      w.probes.push_back(ProbeSeconds());
      w.plain.push_back(SpawnChild(w.name, options.seed, Mode::kPlain));
    }
    ++rounds;
  }
  for (auto& w : results) {
    if (options.trace) {
      std::cerr << "memfs_bench: " << w.name << " undecorated run\n";
      w.undecorated = SpawnChild(w.name, options.seed, Mode::kUndecorated);
      std::cerr << "memfs_bench: " << w.name << " traced run\n";
      w.traced = SpawnChild(w.name, options.seed, Mode::kTraced);
      w.has_traced = true;
    }
    CheckRuns(w);
    Summarise(w);
  }

  bool correct = true;
  for (const auto& w : results) {
    PrintTables(std::cout, w);
    correct = correct && w.errors.empty();
  }
  std::cout << "\nmemfs_bench: seed " << options.seed << ", "
            << (correct ? "all correctness gates passed"
                        : "CORRECTNESS GATES FAILED")
            << "\n";
  if (!options.json.empty()) {
    std::ofstream out(options.json);
    WriteJson(out, options, results, correct);
    if (!out) {
      std::cerr << "memfs_bench: cannot write " << options.json << "\n";
      return 2;
    }
  }
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace memfs::bench

int main(int argc, char** argv) {
  using memfs::bench::Options;
  Options options;
  std::string workload = "all";
  std::string child;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    std::uint64_t number = 0;
    bool ok = true;
    if (eq == std::string::npos) {
      ok = false;
    } else if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      ok = memfs::bench::ParseUnsigned(value, options.seed);
    } else if (key == "--reps") {
      ok = memfs::bench::ParseUnsigned(value, number) && number >= 1 &&
           number <= 1000;
      options.reps = static_cast<std::uint32_t>(number);
    } else if (key == "--seconds") {
      ok = memfs::bench::ParseUnsigned(value, number) && number <= 3600;
      options.seconds = static_cast<double>(number);
    } else if (key == "--trace") {
      ok = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (key == "--json") {
      options.json = value;
    } else if (key == "--child") {
      child = value;
    } else {
      ok = false;
    }
    if (!ok) {
      std::cerr << "memfs_bench: bad argument '" << arg << "'\n";
      memfs::bench::Usage();
      return 2;
    }
  }
  const auto& names = memfs::bench::WorkloadNames();
  if (workload == "all") {
    options.workloads = names;
  } else if (std::find(names.begin(), names.end(), workload) != names.end()) {
    options.workloads = {workload};
  } else {
    std::cerr << "memfs_bench: unknown workload '" << workload << "'\n";
    memfs::bench::Usage();
    return 2;
  }
  if (!child.empty()) {
    return memfs::bench::RunChildMode(child, workload, options.seed);
  }
  return memfs::bench::RunParent(options);
}

// Per-operation latency profile of the MemFS data path, plus the simulator
// scale profile behind BENCH_scale.json.
//
// Default mode runs a mixed envelope workload (writes, local+remote reads,
// metadata) with the latency instrumentation attached and prints percentile
// tables for the VFS surface and the underlying key-value protocol — the
// microscopic breakdown behind the aggregate bandwidth/throughput figures: a
// vfs.read is one or more kv.get round trips plus FUSE and assembly, a
// vfs.close carries the buffered-stripe drain and the metadata seal, etc.
//
// --scale mode profiles the simulator itself instead of the simulated
// system: it re-runs the fig08 64-node point (all six workflow cells of the
// figure's rightmost column) and reports wall-clock, simulated events,
// sim-events/sec, the fluid network's solver work (transfers, packets,
// reallocations, rate recomputes; informational, not gated), the frame
// pool's peak held bytes, and — when built with
// MEMFS_PROFILE_ALLOC, which this target is — global heap allocation/free
// counts, as JSON on stdout in the BENCH_scale.json schema. --sweep adds a
// Montage-6/MemFS node sweep (8 → 1024). --baseline=FILE compares the
// 64-node point with the committed baseline and exits nonzero when its
// wall-clock is >20% slower (override the tolerance with
// MEMFS_PERF_GATE_TOLERANCE when gating on hardware other than the
// baseline's), when its sim_events differ, or when its heap allocations or
// the pool's peak held bytes exceed the baseline's by more than 1%. The
// time gate is on wall-clock, not on sim-events/sec: events/sec rewards
// adding cheap events and punishes removing them, while the time to
// simulate the same workload does not. The counters are exact run to run,
// so a regression in them cannot hide in host noise. An unknown flag, or
// --sweep or --baseline without --scale, prints a usage line and exits 2.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common/table.h"
#include "common/units.h"
#include "paper_cells.h"
#include "sim/pool_alloc.h"
#include "workloads/envelope.h"
#include "workloads/testbed.h"

#ifdef MEMFS_PROFILE_ALLOC
#include <atomic>
#include <new>

// Global allocation counters. Replacing the global operator new/delete in
// this TU covers every allocation in the binary (replacement is a link-time
// property), which is why the counter lives in the bench TU and not in a
// library that test or sanitizer builds would also link. The over-aligned
// variants matter: the simulator's event cells are alignas(64).
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_frees{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_heap_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  operator delete(p);
}
#endif  // MEMFS_PROFILE_ALLOC

using namespace memfs;         // NOLINT
using namespace memfs::bench;  // NOLINT

namespace {

std::uint64_t HeapAllocs() {
#ifdef MEMFS_PROFILE_ALLOC
  return g_heap_allocs.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

std::uint64_t HeapFrees() {
#ifdef MEMFS_PROFILE_ALLOC
  return g_heap_frees.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

// One measured run: wall-clock plus simulated-event, solver and heap counters.
struct ScalePoint {
  double wall_s = 0.0;
  std::uint64_t sim_events = 0;
  net::FluidNetwork::SolverStats solver;
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_frees = 0;

  double EventsPerSec() const {
    return wall_s > 0.0 ? static_cast<double>(sim_events) / wall_s : 0.0;
  }

  void AddCell(const CellResult& cell) {
    sim_events += cell.sim_events;
    solver.transfers += cell.solver.transfers;
    solver.packets += cell.solver.packets;
    solver.reallocations += cell.solver.reallocations;
    solver.rate_recomputes += cell.solver.rate_recomputes;
  }
};

template <typename Fn>
ScalePoint Measure(Fn&& run) {
  ScalePoint point;
  const std::uint64_t allocs0 = HeapAllocs();
  const std::uint64_t frees0 = HeapFrees();
  // lint: allow(nondeterminism) measuring the simulator's own wall-clock
  const auto start = std::chrono::steady_clock::now();
  run(point);
  // lint: allow(nondeterminism) measuring the simulator's own wall-clock
  const auto stop = std::chrono::steady_clock::now();
  point.wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(stop - start)
          .count();
  point.heap_allocs = HeapAllocs() - allocs0;
  point.heap_frees = HeapFrees() - frees0;
  return point;
}

// The fig08 64-node point: the six workflow cells of the figure's rightmost
// column in the paper-figure table (Montage-6 on AMFS_8, AMFS_4 and
// MemFS_8; Montage-12 on MemFS; BLAST on AMFS and MemFS), each workflow
// built once. Adds the six testbeds' counters to `point`.
void RunFig08Point(ScalePoint& point) {
  std::map<Workload, mtc::Workflow> workflows;
  for (const Figure& figure : PaperFigures()) {
    if (!figure.id.starts_with("fig08")) continue;
    for (const Row& row : figure.rows) {
      if (row.cell.nodes != 64) continue;
      auto built = workflows.find(row.cell.workload);
      if (built == workflows.end()) {
        built = workflows.emplace(row.cell.workload, BuildWorkload(row.cell))
                    .first;
      }
      const CellResult cell = RunCell(row.cell, &built->second);
      if (!cell.status.ok()) {
        std::cerr << "scale cell failed: " << cell.status.ToString() << "\n";
        std::exit(2);
      }
      point.AddCell(cell);
    }
  }
}

// fig08a's 64-node Montage-6/MemFS cell moved to `nodes` — the sweep
// workload. The work is held constant across the whole sweep, so the
// wall-clock trend isolates how simulator cost grows with cluster size:
// per-node services, membership, monitors and wider fan-outs, not more
// application work. Montage-6 cannot fill 1024 nodes — the point of the
// large cells is that the simulator carries them at all.
void RunSweepCell(std::uint32_t nodes, ScalePoint& point) {
  CellParams params = FindRow("fig08a", "64 nodes MemFS_8")->cell;
  params.nodes = nodes;
  const CellResult cell = RunCell(params);
  if (!cell.status.ok()) {
    std::cerr << "sweep cell failed @ " << nodes
              << " nodes: " << cell.status.ToString() << "\n";
    std::exit(2);
  }
  point.AddCell(cell);
}

void AppendPoint(std::ostream& out, const ScalePoint& point) {
  out << "\"wall_s\": " << point.wall_s
      << ", \"sim_events\": " << point.sim_events
      << ", \"transfers\": " << point.solver.transfers
      << ", \"packets\": " << point.solver.packets
      << ", \"reallocations\": " << point.solver.reallocations
      << ", \"rate_recomputes\": " << point.solver.rate_recomputes
      << ", \"events_per_sec\": " << point.EventsPerSec()
      << ", \"heap_allocs\": " << point.heap_allocs
      << ", \"heap_frees\": " << point.heap_frees;
}

// Pulls the first numeric value following `"key":` at or after `from`.
double JsonNumberAfter(const std::string& text, const std::string& key,
                       std::size_t from) {
  const std::size_t at = text.find("\"" + key + "\":", from);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + key.size() + 3, nullptr);
}

int RunScaleProfile(bool sweep, const std::string& baseline_path) {
  std::ostringstream json;
  json << "{\n";
  json << "  \"benchmark\": \"paper_figures fig08 @ 64 nodes, all six "
          "cells\",\n";
  json << "  \"alloc_counters\": "
#ifdef MEMFS_PROFILE_ALLOC
       << "true"
#else
       << "false"
#endif
       << ",\n";

  std::cerr << "running fig08 64-node point...\n";
  const ScalePoint fig08 = Measure(RunFig08Point);
  // fig08 is this process's first simulation, so the thread's pool peak is
  // its own.
  const std::size_t pool_peak = sim::detail::PoolHeld().peak;
  json << "  \"fig08_64\": {";
  AppendPoint(json, fig08);
  json << ", \"pool_peak_bytes\": " << pool_peak << "},\n";

  json << "  \"sweep_workload\": \"montage6 memfs 8 cores/node, constant "
          "work (task_scale 4, size_scale 16) at every cluster size\",\n";
  json << "  \"sweep\": [";
  if (sweep) {
    bool first = true;
    for (std::uint32_t nodes : {8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
      std::cerr << "sweep point: " << nodes << " nodes...\n";
      const ScalePoint point =
          Measure([nodes](ScalePoint& p) { RunSweepCell(nodes, p); });
      json << (first ? "" : ",") << "\n    {\"nodes\": " << nodes << ", ";
      AppendPoint(json, point);
      json << "}";
      first = false;
    }
    json << "\n  ";
  }
  json << "]\n}\n";

  std::cout << json.str();

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::cerr << "perf gate: cannot read baseline " << baseline_path
                << "\n";
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    const std::size_t at = text.find("\"fig08_64\"");
    auto baseline_value = [&](const std::string& key) {
      return at == std::string::npos ? -1.0 : JsonNumberAfter(text, key, at);
    };
    const double baseline_wall = baseline_value("wall_s");
    const double baseline_events = baseline_value("sim_events");
    const double baseline_allocs = baseline_value("heap_allocs");
    const double baseline_pool = baseline_value("pool_peak_bytes");
    if (baseline_wall <= 0.0 || baseline_events <= 0.0 ||
        baseline_allocs <= 0.0 || baseline_pool <= 0.0) {
      std::cerr << "perf gate: baseline lacks fig08_64 wall_s, sim_events, "
                   "heap_allocs or pool_peak_bytes\n";
      return 1;
    }
    bool ok = true;
    double tolerance = 0.20;
    if (const char* env = std::getenv("MEMFS_PERF_GATE_TOLERANCE")) {
      tolerance = std::strtod(env, nullptr);
    }
    const double ceiling = baseline_wall * (1.0 + tolerance);
    std::cerr << "perf gate: measured " << fig08.wall_s << " s ("
              << fig08.EventsPerSec() << " sim-events/sec), baseline "
              << baseline_wall << " s, ceiling " << ceiling << " s\n";
    if (fig08.wall_s > ceiling) {
      std::cerr << "perf gate: FAIL (wall-clock regressed more than "
                << tolerance * 100.0 << "%)\n";
      ok = false;
    }
    // The counters are exact run to run, so they are gated tightly: the
    // event count must match, and heap allocations and the pool's peak held
    // bytes may grow by 1% at most. A change that moves them on purpose
    // regenerates the baseline.
    if (static_cast<double>(fig08.sim_events) != baseline_events) {
      std::cerr << "perf gate: FAIL (sim_events " << fig08.sim_events
                << " differs from the baseline's "
                << static_cast<std::uint64_t>(baseline_events) << ")\n";
      ok = false;
    }
#ifdef MEMFS_PROFILE_ALLOC
    const double alloc_ceiling = baseline_allocs * 1.01;
    std::cerr << "perf gate: heap_allocs " << fig08.heap_allocs
              << ", baseline "
              << static_cast<std::uint64_t>(baseline_allocs) << ", ceiling "
              << static_cast<std::uint64_t>(alloc_ceiling) << "\n";
    if (static_cast<double>(fig08.heap_allocs) > alloc_ceiling) {
      std::cerr << "perf gate: FAIL (heap allocations grew more than 1%)\n";
      ok = false;
    }
#else
    std::cerr << "perf gate: heap_allocs not checked (built without "
                 "MEMFS_PROFILE_ALLOC)\n";
#endif
#ifndef MEMFS_POOL_ALLOC_BYPASS
    const double pool_ceiling = baseline_pool * 1.01;
    std::cerr << "perf gate: pool_peak_bytes " << pool_peak << ", baseline "
              << static_cast<std::uint64_t>(baseline_pool) << ", ceiling "
              << static_cast<std::uint64_t>(pool_ceiling) << "\n";
    if (static_cast<double>(pool_peak) > pool_ceiling) {
      std::cerr << "perf gate: FAIL (pool peak held bytes grew more than "
                   "1%)\n";
      ok = false;
    }
#else
    std::cerr << "perf gate: pool_peak_bytes not checked (pool bypassed "
                 "under sanitizers)\n";
#endif
    if (!ok) return 1;
    std::cerr << "perf gate: ok\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool scale = false;
  bool sweep = false;
  std::string baseline;
  const auto usage = [](const std::string& problem) {
    std::cerr << "micro_latency_profile: " << problem << "\n"
              << "usage: micro_latency_profile [--csv] | --scale [--sweep] "
                 "[--baseline=FILE]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale") {
      scale = true;
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline = arg.substr(11);
      if (baseline.empty()) return usage("--baseline= needs a file");
    } else if (arg != "--csv") {
      return usage("unknown flag " + arg);
    }
  }
  if (!scale && (sweep || !baseline.empty())) {
    return usage("--sweep and --baseline need --scale");
  }
  if (scale) return RunScaleProfile(sweep, baseline);

  const bool csv = WantCsv(argc, argv);

  for (auto [label, file_size, block] :
       {std::tuple{"1 MiB files, whole-file calls", units::MiB(1),
                   std::uint64_t{0}},
        std::tuple{"16 MiB files, 64 KiB calls", units::MiB(16),
                   units::KiB(64)}}) {
    MetricsRegistry registry;
    workloads::TestbedConfig config;
    config.nodes = 16;
    // This profile measures per-RPC service latency; with coalescing on, lane
    // queueing during read/write bursts would dominate every kv.* histogram
    // (that effect is paper_figures abl_batching's subject, not this one's).
    config.memfs.io.batching = false;
    config.metrics = &registry;
    workloads::Testbed bed(workloads::FsKind::kMemFs, config);

    workloads::EnvelopeParams params;
    params.nodes = 16;
    params.file_size = file_size;
    params.files_per_proc = 4;
    params.io_block = block;
    workloads::EnvelopeBench bench(bed.simulation(), bed.vfs(), params,
                                   nullptr);
    (void)bench.RunWrite();
    (void)bench.RunRead11();
    (void)bench.RunReadN1();
    (void)bench.RunCreate(32);
    (void)bench.RunOpen();

    std::cout << "# Latency profile: 16 nodes IPoIB, " << label << "\n";
    registry.Report(std::cout, csv);
    std::cout << "\n";
  }
  std::cout << "Reading: vfs.write is usually buffer-accept time (µs) while "
               "vfs.close absorbs the drain; vfs.read p50 is a cache hit "
               "(FUSE-only) and its tail is a stripe fetch; per RPC kv.get is "
               "cheaper than kv.set (the Memcached asymmetry the cost model "
               "encodes), though N-1 read bursts queue on the stripe-home "
               "servers and push the kv.get mean past it.\n";
  return 0;
}

// The chaos round trip behind the paper's future-work checks (replication,
// degraded writes, elastic scale-out; §3.2.5, §5): write a wave of synthetic
// files under faults or a membership change, then read each one back. The
// determinism gate, memfs_run, the fault and elastic ablations and the chaos
// tests all run it; its every write and read is issued by the two
// coroutines below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "kvstore/kv_cluster.h"
#include "kvstore/membership.h"
#include "kvstore/migrator.h"
#include "memfs/vfs.h"
#include "sim/fault.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "trace/trace.h"

namespace memfs::workloads {

// Five attempts inside a 20 ms op deadline; callers pick the replication.
kv::KvClientPolicy ChaosPolicy();

// The generated schedule of the determinism gate and memfs_run --faults:
// two crashes, one slow episode and one link fault inside 48 ms, over
// servers and link endpoints [0, servers).
sim::FaultScheduleConfig ChaosSchedule(std::uint64_t seed,
                                       std::uint32_t servers,
                                       bool wipe_on_restart);

// The chaos soak's hand-scripted schedule (>= 8 nodes): wiping crashes of
// servers 0, 2 and 4 (non-adjacent on the ring), two deadline-tripping
// slowdowns and two lossy links into node 5, in disjoint windows, so no
// replica pair ever loses both copies.
std::vector<sim::FaultEvent> ScriptedChaosSchedule();

// A client context on `node`; with a tracer it opens the root span `name`.
fs::VfsContext RootContext(trace::Tracer* tracer, std::uint32_t node,
                           const std::string& name);

enum class Verdict : std::uint8_t {
  kUnread,
  kIntact,
  kCorrupt,               // wrong or missing bytes (a short file too)
  kNotFound,              // the open or a read said NOT_FOUND
  kUnavailablePermanent,  // a read hit a stripe with no copy left
  kFailed,                // any other error
};

// Waits `start`, then creates `path` on `node`, writes `size` synthetic bytes
// of `seed` in one call and closes it; `acked` = 1 when all three succeeded.
// With a tracer the file gets the root span "write <path>".
sim::Task WriteChaosFile(sim::Simulation& sim, fs::Vfs& vfs,
                         trace::Tracer* tracer, sim::SimTime start,
                         std::uint32_t node, std::string path,
                         std::uint64_t size, std::uint64_t seed,
                         std::uint8_t& acked);

// Reads `path` back on `node` in `size`-byte calls until an empty read,
// closes the handle on every path and compares with the bytes of `seed`.
// With a tracer the file gets the root span "read <path>".
sim::Task VerifyChaosFile(fs::Vfs& vfs, trace::Tracer* tracer,
                          std::uint32_t node, std::string path,
                          std::uint64_t size, std::uint64_t seed,
                          Verdict& verdict);

// File i of a wave is `prefix` + i: `file_size` bytes of seed `seed_base` +
// i, written from client node i % `nodes`, starting at i * `spacing`.
struct Wave {
  std::uint32_t files = 0;
  std::uint64_t file_size = 0;
  sim::SimTime spacing = 0;
  std::string prefix;
  std::uint64_t seed_base = 0;
  std::uint32_t nodes = 1;
};

// Per-file outcomes, written by the coroutines: keep it in place until the
// simulation has run them.
struct WaveResult {
  std::vector<std::uint8_t> acked;
  std::vector<Verdict> verdicts;
  std::uint32_t writes_ok() const {
    return static_cast<std::uint32_t>(std::count(acked.begin(), acked.end(), 1));
  }
  std::uint32_t Count(Verdict verdict) const {
    return static_cast<std::uint32_t>(
        std::count(verdicts.begin(), verdicts.end(), verdict));
  }
};

// Start every write (LaunchWave) or read-back (VerifyWave) of `wave` and
// return: the caller may start concurrent work first — a transition driver,
// a scheduled crash, a live reader — and then runs the simulation.
void LaunchWave(sim::Simulation& sim, fs::Vfs& vfs, const Wave& wave,
                WaveResult& result, trace::Tracer* tracer = nullptr);
void VerifyWave(fs::Vfs& vfs, const Wave& wave, WaveResult& result,
                trace::Tracer* tracer = nullptr);

enum class Transition { kJoin, kDrain };

struct TransitionStep {
  Transition kind = Transition::kJoin;
  std::uint32_t server = 0;      // the joining node or the draining server
  sim::SimTime wait_before = 0;  // after the previous step (or the launch)
  sim::SimTime pause_between_runs = 0;  // 0: migrator runs back to back
};

struct TransitionOutcome {
  bool committed = false;     // the handoff closed (a drained server LEFT)
  sim::SimTime makespan = 0;  // BeginJoin/BeginDrain until the last run
};

struct TransitionReport {
  std::vector<TransitionOutcome> steps;
  bool done = false;  // every step has run
  bool committed() const {
    return done && std::all_of(steps.begin(), steps.end(),
                               [](const auto& step) { return step.committed; });
  }
};

// Runs the steps in turn: wait, begin the join or drain, then re-run the
// migrator (resume is idempotent) until the transition closes or 32 runs
// are spent. `report` must outlive the task.
sim::Task RunTransitions(sim::Simulation& sim, kv::Membership& membership,
                         kv::Migrator& migrator,
                         std::vector<TransitionStep> steps,
                         TransitionReport& report);

}  // namespace memfs::workloads

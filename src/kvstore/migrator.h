// Background data rebalancer for elastic membership transitions.
//
// After Membership::BeginJoin/BeginDrain opens a transition, Run() streams
// every key whose replica chain changed to its new home over the ordinary
// MULTI_GET / MULTI_SET batched lanes (KvCluster::Batch) — migration traffic
// pays the same simulated network and worker costs as foreground I/O, which
// is what makes the SLO-under-rebalance experiments honest. The sweep loop:
//
//   1. enumerate all stored keys (sorted union over the servers), keep those
//      whose chain moved and whose new-ring targets lack a copy;
//   2. cut the pending list into chunks; for each chunk (bounded
//      concurrency) lock the keys against writers (HandoffGate), batch-GET
//      from the current holders, batch-SET onto the missing targets, mark
//      the keys committed, batch-DELETE the displaced old copies, unlock;
//   3. repeat until a sweep finds nothing pending, then commit the
//      transition (JOINING -> ACTIVE / DRAINING -> LEFT).
//
// Crash safety falls out of the sweep being a pure function of the observed
// state: a migrator killed (or a source/target crashing) mid-handoff leaves
// keys either at their old home, their new home, or both — all readable via
// the double-read window — and a re-run of Run() resumes idempotently from
// whatever the previous attempt managed (copies never applied twice:
// already-satisfied keys are simply marked committed). A run that cannot
// converge within `max_sweeps` (e.g. a holder stays down) resolves with an
// error and leaves the transition open for a later resume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "kvstore/membership.h"
#include "sim/future.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "trace/trace.h"

namespace memfs::kv {

struct MigratorConfig {
  // Sweeps before Run() gives up and leaves the transition open for resume.
  std::uint32_t max_sweeps = 6;
};

struct MigratorProgress {
  std::uint64_t keys_total = 0;   // keys_moved + still-pending, per sweep
  std::uint64_t keys_moved = 0;   // handoffs committed by this migrator
  std::uint64_t bytes_moved = 0;  // value bytes actually copied onto targets
  std::uint64_t sweeps = 0;
  std::uint64_t failed_chunks = 0;  // chunks that hit an unreachable server
  bool active = false;
};

class Migrator {
 public:
  // Records migrate.* gauges into the storage cluster's metrics registry
  // when one is configured.
  Migrator(sim::Simulation& sim, Membership& membership,
           MigratorConfig config = {});

  // Drives the open transition to completion (see file header). At most one
  // Run may be in flight. Resolves OK after CommitTransition, or with an
  // error when the run could not converge (the transition stays open and a
  // later Run resumes it).
  [[nodiscard]] sim::Future<Status> Rebalance(trace::TraceContext trace = {});

  const MigratorProgress& progress() const { return progress_; }
  const MigratorConfig& config() const { return config_; }
  // The Simulation this migrator's coroutines run on.
  sim::Simulation& simulation() const { return sim_; }

 private:
  struct KeyPlan {
    std::string key;
    std::uint32_t source = 0;            // holder to read from
    bool have_source = false;
    std::vector<std::uint32_t> adds;     // new-ring targets lacking a copy
    std::vector<std::uint32_t> removes;  // displaced old holders to clean up
    Bytes value;
    bool fetched = false;
    bool ok = true;
  };

  struct SweepState {
    SweepState(sim::Simulation& sim, std::uint32_t slots)
        : wg(sim, "Migrator.sweep"),
          chunk_slots(sim, slots, "Migrator.chunks") {}
    sim::WaitGroup wg;
    sim::Semaphore chunk_slots;
    bool failed = false;
  };

  // All keys whose chain moved and whose targets are not yet fully
  // populated, sorted (deterministic sweep order).
  std::vector<std::string> CollectPending() const;
  bool TargetsSatisfied(const std::string& key) const;

  sim::Task MoveChunk(std::vector<std::string> keys, SweepState* sweep,
                      trace::TraceContext trace);

  void SyncGauges();

  sim::Simulation& sim_;
  Membership& membership_;
  MigratorConfig config_;
  MigratorProgress progress_;
  bool running_ = false;
  std::int64_t* active_gauge_ = nullptr;       // migrate.active
  std::int64_t* keys_total_gauge_ = nullptr;   // migrate.keys_total
  std::int64_t* keys_moved_gauge_ = nullptr;   // migrate.keys_moved
  std::int64_t* bytes_moved_gauge_ = nullptr;  // migrate.bytes_moved
  std::int64_t* sweeps_gauge_ = nullptr;       // migrate.sweeps
};

}  // namespace memfs::kv

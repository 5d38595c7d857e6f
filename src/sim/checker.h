// Opt-in runtime correctness checker for the simulation core.
//
// A SimChecker attaches to one Simulation and instruments the coroutine
// primitives (Semaphore, WaitGroup, Future) plus coroutine frames:
//
//  * Wait-for registry — every suspension on an instrumented primitive is
//    recorded with the primitive kind, its registration site (debug name) and
//    the simulated time of suspension; resumption removes the record. When
//    the event queue drains while waiters remain, each stuck coroutine is
//    reported as a lost wakeup / deadlock, naming the primitive it is parked
//    on.
//  * Permit accounting — semaphores track permits in use; a Release() with no
//    outstanding permit (double release, or releasing a permit that was
//    never acquired) is reported the moment it happens. A semaphore the
//    checker saw created with zero permits is a signal, not a lock: its
//    Release() produces the permit a later Acquire() consumes, so releasing
//    it first is legal. Semaphores created before the checker attached are
//    registered lazily and always follow the lock rule.
//  * Task lifetimes — sim::Task and sim::Future coroutine frames are counted
//    at creation and destruction. A frame still alive at Finish() that is
//    not parked on any instrumented primitive is a leaked task (suspended on
//    a raw awaitable, or orphaned by a missing resume).
//
// The checker is strictly opt-in: primitives consult
// Simulation::checker() and pay one null-pointer test when none is attached,
// so production runs and benchmarks are unaffected. Attach the checker
// before creating the primitives it should audit:
//
//   sim::Simulation sim;
//   sim::SimChecker checker(sim);
//   ... build cluster, run workload ...
//   sim.Run();
//   ASSERT_TRUE(checker.Finish().empty()) << checker.Summary();
//
// Determinism auditing rides on Simulation::EventDigest(): an order-sensitive
// FNV-1a hash over the (time, sequence) pair of every event processed. Two
// runs of the same seeded program must produce identical digests; see
// tools/determinism_gate.cc.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/simulation.h"

namespace memfs::sim {

enum class WaitKind : std::uint8_t { kSemaphore, kWaitGroup, kFuture };

std::string_view ToString(WaitKind kind);

// One detected violation. `rule` is a stable machine-readable identifier
// ("lost-wakeup", "semaphore-over-release", "leaked-task"); `detail` is the
// human-readable diagnosis naming the primitive and registration site.
struct CheckerFinding {
  std::string rule;
  std::string detail;
};

class SimChecker {
 public:
  explicit SimChecker(Simulation& sim);
  ~SimChecker();

  SimChecker(const SimChecker&) = delete;
  SimChecker& operator=(const SimChecker&) = delete;

  // --- Hooks, called by the instrumented primitives -----------------------

  // A coroutine suspended on `primitive`; `site` is the primitive's debug
  // name (its registration site).
  void OnSuspend(std::coroutine_handle<> handle, WaitKind kind,
                 const void* primitive, std::string_view site);
  // A wakeup for `handle` was scheduled; it leaves the wait-for registry.
  void OnResume(std::coroutine_handle<> handle);

  void OnSemaphoreCreate(const void* sem, std::uint64_t permits,
                         std::string_view site);
  void OnSemaphoreDestroy(const void* sem);
  // A permit was taken (fast-path acquire, TryAcquire, or direct handoff).
  void OnAcquire(const void* sem);
  // A permit was returned; flags over-release when none is outstanding,
  // unless the semaphore is a signal.
  void OnRelease(const void* sem, std::string_view site);

  // sim::Task frame lifetime (routed through detail::NoteTaskCreated /
  // NoteTaskDestroyed so task.h needs no Simulation).
  void OnTaskCreate(const void* frame);
  void OnTaskDestroy(const void* frame);

  // Called by Simulation::Run() when the event queue drains; reports every
  // still-registered waiter as a lost wakeup (once per suspension).
  void OnQueueDrained();

  // --- Results ------------------------------------------------------------

  // End-of-run audit: reports remaining waiters (lost wakeups) and live task
  // frames that are not parked on any instrumented primitive (leaked tasks).
  // Returns all findings accumulated so far.
  const std::vector<CheckerFinding>& Finish();

  const std::vector<CheckerFinding>& findings() const { return findings_; }
  bool clean() const { return findings_.empty(); }

  // All findings, one "rule: detail" line each (empty string when clean).
  std::string Summary() const;

  // Introspection for tests.
  std::size_t waiting() const { return waiting_.size(); }
  std::size_t live_tasks() const { return tasks_.size(); }

 private:
  struct Waiter {
    WaitKind kind;
    const void* primitive;
    std::string site;
    SimTime since;
    bool reported = false;  // lost-wakeup already emitted for this suspension
  };
  struct SemaphoreState {
    std::string site;
    std::uint64_t permits = 0;  // initial permit count
    std::uint64_t held = 0;     // permits currently acquired
    bool signal = false;        // created with zero permits after attach
  };

  void ReportLostWakeups();

  Simulation* sim_;
  std::unordered_map<void*, Waiter> waiting_;  // key: coroutine frame address
  std::unordered_map<const void*, SemaphoreState> semaphores_;
  std::unordered_set<const void*> tasks_;  // live sim::Task frames
  std::vector<CheckerFinding> findings_;
  bool finished_ = false;
};

namespace detail {

// Defined in checker.cc: forwards sim::Task frame lifetime events to the
// active SimChecker (no-ops when none is attached). Free functions so that
// task.h — which has no Simulation reference — stays dependency-free.
void NoteTaskCreated(void* frame) noexcept;
void NoteTaskDestroyed(void* frame) noexcept;

}  // namespace detail

}  // namespace memfs::sim

// Task placement policies.
//
// The paper's experiments all run under the AMFS Shell execution engine,
// extended by the authors to schedule multiple tasks per node (§4.2):
//  * with MemFS as backend the scheduler is locality-agnostic and simply
//    fills free core slots uniformly;
//  * with AMFS it is locality-aware: a task runs on the node that stores its
//    first input file (AMFS Shell can guarantee locality for one file per
//    job), and data-aggregation tasks run where most of their data lives —
//    which is what concentrates data on the "scheduler node" of Table 3.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "amfs/amfs.h"
#include "mtc/workflow.h"
#include "net/network.h"

namespace memfs::mtc {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Chooses a node for workflow.tasks[task] (its files resolve through the
  // workflow's table). `free_cores[n]` is the number of idle core slots on
  // node n. Returns nullopt to defer the task (no acceptable node is free
  // right now); the runner retries after the next task completion.
  virtual std::optional<net::NodeId> Place(
      const Workflow& workflow, std::size_t task,
      const std::vector<std::uint32_t>& free_cores) = 0;

  // True when Place is a guaranteed side-effect-free nullopt while no core
  // anywhere is free — the runner then skips the dispatch scan entirely on a
  // saturated cluster instead of probing every ready task. Schedulers that
  // mutate state on failed placements (deferral counters) must return false,
  // or skipped probes would change later placement decisions.
  virtual bool SkipWhenSaturated() const { return false; }
};

// Locality-agnostic: round-robin over nodes with free slots (what the
// modified AMFS Shell does when MemFS is the storage backend).
class UniformScheduler final : public Scheduler {
 public:
  std::optional<net::NodeId> Place(
      const Workflow& workflow, std::size_t task,
      const std::vector<std::uint32_t>& free_cores) override;

  // The cursor only advances on successful placements, so a failed probe
  // leaves no trace and saturated-cluster scans are safely skippable.
  bool SkipWhenSaturated() const override { return true; }

 private:
  std::uint32_t cursor_ = 0;
};

// Locality-aware (AMFS Shell): place each task on the node holding its first
// input; aggregation tasks (many inputs) go to the node holding most of
// their input bytes. If the preferred node is busy the task is deferred —
// moving it elsewhere would forfeit the locality AMFS depends on and
// replicate data. Tasks without inputs are spread round-robin.
class LocalityScheduler final : public Scheduler {
 public:
  explicit LocalityScheduler(const amfs::Amfs& fs) : fs_(fs) {}

  std::optional<net::NodeId> Place(
      const Workflow& workflow, std::size_t task,
      const std::vector<std::uint32_t>& free_cores) override;

  // After how many deferrals a task may run anywhere (the Shell eventually
  // runs starving tasks remotely). 0 = strict locality.
  void set_patience(std::uint32_t retries) { patience_ = retries; }

 private:
  const amfs::Amfs& fs_;
  std::uint32_t cursor_ = 0;
  std::uint32_t patience_ = 16;
  // Deferrals so far of each task of the current workflow, by task index.
  std::vector<std::uint32_t> deferrals_;
};

}  // namespace memfs::mtc

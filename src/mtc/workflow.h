// Many-task workflow representation.
//
// An MTC application is a set of tasks communicating through files in the
// runtime file system (§1). A task reads its input files, computes, and
// writes its output files; the DAG is implicit in the producer/consumer
// relation over files. Workload generators (src/workloads) build these
// structures with the paper's stage shapes and file-size distributions.
//
// Each path is stored once, in the workflow's file table; tasks name their
// files by FileId through one flat `refs` array, so a file read by a
// thousand tasks costs a thousand 4-byte ids, not a thousand strings.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/simulation.h"

namespace memfs::mtc {

// Index into Workflow::files.
using FileId = std::uint32_t;

struct File {
  std::string path;
  // Bytes its producers write; unused for a pre-existing input.
  std::uint64_t size = 0;
};

struct TaskSpec {
  std::string name;   // unique, e.g. "mDiffFit-0042"
  std::string stage;  // reporting group, e.g. "mDiffFit"
  // Pure compute time on one core (scaled per workload; §4.2's CPU-bound vs
  // I/O-bound stage distinction lives here).
  sim::SimTime cpu_time = 0;
  // Workflow::refs[first_ref, +input_count) are the inputs in read order;
  // the next output_count ids are the outputs in write order.
  std::uint32_t first_ref = 0;
  std::uint32_t input_count = 0;
  std::uint32_t output_count = 0;
};

struct Workflow {
  std::string name;
  std::vector<TaskSpec> tasks;
  std::vector<File> files;
  std::vector<FileId> refs;
  // Directories created (in order) before any task runs.
  std::vector<std::string> directories;

  FileId AddFile(std::string path, std::uint64_t size = 0) {
    files.push_back({std::move(path), size});
    return static_cast<FileId>(files.size() - 1);
  }

  // Appends a task reading `inputs` and writing `outputs` (ids of files
  // already in the table). A file listed twice is read or written twice.
  void AddTask(std::string task_name, std::string stage,
               std::span<const FileId> inputs,
               std::span<const FileId> outputs, sim::SimTime cpu_time = 0) {
    TaskSpec& task = tasks.emplace_back();
    task.name = std::move(task_name);
    task.stage = std::move(stage);
    task.cpu_time = cpu_time;
    task.first_ref = static_cast<std::uint32_t>(refs.size());
    task.input_count = static_cast<std::uint32_t>(inputs.size());
    task.output_count = static_cast<std::uint32_t>(outputs.size());
    for (FileId id : inputs) {
      assert(id < files.size());
      refs.push_back(id);
    }
    for (FileId id : outputs) {
      assert(id < files.size());
      refs.push_back(id);
    }
  }

  std::span<const FileId> Inputs(const TaskSpec& task) const {
    return {refs.data() + task.first_ref, task.input_count};
  }
  std::span<const FileId> Outputs(const TaskSpec& task) const {
    return {refs.data() + task.first_ref + task.input_count,
            task.output_count};
  }

  // Total bytes of every output in the workflow ("runtime data", Table 2).
  std::uint64_t TotalOutputBytes() const {
    std::uint64_t total = 0;
    for (const auto& task : tasks) {
      for (FileId out : Outputs(task)) total += files[out].size;
    }
    return total;
  }
};

// Deterministic content seed for a workload file; writers generate the file
// as Bytes::Synthetic(size, FileSeed(path)) and readers verify slices
// against the same seed.
std::uint64_t FileSeed(const std::string& path);

}  // namespace memfs::mtc

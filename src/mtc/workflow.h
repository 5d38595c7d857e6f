// Many-task workflow representation.
//
// An MTC application is a set of tasks communicating through files in the
// runtime file system (§1). A task reads its input files, computes, and
// writes its output files; the DAG is implicit in the producer/consumer
// relation over files. Workload generators (src/workloads) build these
// structures with the paper's stage shapes and file-size distributions.
//
// Each path and each task name is stored once, back to back in the
// workflow's string table; stage names live in a short table of their own.
// Tasks name their files by FileId through one flat `refs` array, so a file
// read by a thousand tasks costs a thousand 4-byte ids, not a thousand
// strings, and a task or file record holds no heap block of its own.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "sim/simulation.h"

namespace memfs::mtc {

// Index into Workflow::files.
using FileId = std::uint32_t;

// A run of bytes in Workflow::strings.
struct StringRef {
  std::uint32_t offset = 0;
  std::uint32_t size = 0;
};

struct File {
  StringRef path;
  // Bytes its producers write; unused for a pre-existing input.
  std::uint64_t size = 0;
};

struct TaskSpec {
  // Pure compute time on one core (scaled per workload; §4.2's CPU-bound vs
  // I/O-bound stage distinction lives here).
  sim::SimTime cpu_time = 0;
  StringRef name;          // unique, e.g. "mDiffFit-0042"
  std::uint32_t stage = 0;  // reporting group: index into Workflow::stages
  // Workflow::refs[first_ref, +input_count) are the inputs in read order;
  // the next output_count ids are the outputs in write order.
  std::uint32_t first_ref = 0;
  std::uint32_t input_count = 0;
  std::uint32_t output_count = 0;
};
static_assert(sizeof(TaskSpec) <= 32, "a task record is four words");

struct Workflow {
  std::string name;
  std::vector<TaskSpec> tasks;
  std::vector<File> files;
  std::vector<FileId> refs;
  // Stage names ("mDiffFit", ...) in order of their first task.
  std::vector<std::string> stages;
  // Every path and task name, back to back.
  std::string strings;
  // Directories created (in order) before any task runs.
  std::vector<std::string> directories;

  std::string_view Path(FileId id) const { return View(files[id].path); }
  std::string_view TaskName(std::size_t index) const {
    return View(tasks[index].name);
  }
  std::string_view StageName(const TaskSpec& task) const {
    return stages[task.stage];
  }

  // AddFile and AddTask copy `path` and `task_name` into the string table;
  // neither may view that table itself, which an append may move.
  FileId AddFile(std::string_view path, std::uint64_t size = 0) {
    files.push_back({Intern(path), size});
    return static_cast<FileId>(files.size() - 1);
  }

  // Appends a task reading `inputs` and writing `outputs` (ids of files
  // already in the table). A file listed twice is read or written twice.
  void AddTask(std::string_view task_name, std::string_view stage,
               std::span<const FileId> inputs,
               std::span<const FileId> outputs, sim::SimTime cpu_time = 0) {
    TaskSpec& task = tasks.emplace_back();
    task.cpu_time = cpu_time;
    task.name = Intern(task_name);
    task.stage = StageId(stage);
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

  // Drops the spare capacity the builders' growth left in every table; a
  // finished workflow is only read.
  void ShrinkToFit() {
    tasks.shrink_to_fit();
    files.shrink_to_fit();
    refs.shrink_to_fit();
    strings.shrink_to_fit();
  }

 private:
  std::string_view View(StringRef ref) const {
    return std::string_view(strings).substr(ref.offset, ref.size);
  }
  StringRef Intern(std::string_view text) {
    assert(strings.size() + text.size() <= UINT32_MAX);
    const StringRef ref{static_cast<std::uint32_t>(strings.size()),
                        static_cast<std::uint32_t>(text.size())};
    strings.append(text);
    return ref;
  }
  std::uint32_t StageId(std::string_view stage) {
    // A handful per workflow, and consecutive tasks mostly share one.
    for (std::size_t s = stages.size(); s-- > 0;) {
      if (stages[s] == stage) return static_cast<std::uint32_t>(s);
    }
    stages.emplace_back(stage);
    return static_cast<std::uint32_t>(stages.size() - 1);
  }
};

// Deterministic content seed for a workload file; writers generate the file
// as Bytes::Synthetic(size, FileSeed(path)) and readers verify slices
// against the same seed.
std::uint64_t FileSeed(std::string_view path);

}  // namespace memfs::mtc

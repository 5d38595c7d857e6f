#include "mtc/runner.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace memfs::mtc {
namespace {

// The ready tasks: an ordered set of task indices kept as a bitmap under
// summary levels, where bit b of a level is set while word b of the level
// below is nonzero. Insert and Erase touch at most one word per level, and
// Next climbs to the first level with a set bit at or after its start, then
// descends to it: every operation is O(log64 n), and dispatch visits tasks in
// ascending index order without shifting a sorted list on every placement.
class ReadySet {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  explicit ReadySet(std::size_t capacity) {
    std::size_t bits = std::max<std::size_t>(capacity, 1);
    do {
      bits = (bits + 63) / 64;
      levels_.emplace_back(bits, 0);
    } while (bits > 1);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void Insert(std::size_t i) {
    for (std::vector<std::uint64_t>& level : levels_) {
      std::uint64_t& word = level[i / 64];
      const bool was_empty = word == 0;
      assert((word >> (i % 64) & 1) == 0);
      word |= std::uint64_t{1} << (i % 64);
      if (!was_empty) break;  // the levels above already mark this word
      i /= 64;
    }
    ++size_;
  }

  void Erase(std::size_t i) {
    for (std::vector<std::uint64_t>& level : levels_) {
      std::uint64_t& word = level[i / 64];
      assert((word >> (i % 64) & 1) == 1);
      word &= ~(std::uint64_t{1} << (i % 64));
      if (word != 0) break;  // the word still has members
      i /= 64;
    }
    --size_;
  }

  // The smallest member >= from, or kNone.
  std::size_t Next(std::size_t from) const {
    std::size_t level = 0;
    std::size_t i = from;
    while (true) {
      if (level == levels_.size() || i / 64 >= levels_[level].size()) {
        return kNone;
      }
      const std::uint64_t word =
          levels_[level][i / 64] & (~std::uint64_t{0} << (i % 64));
      if (word != 0) {
        i = i / 64 * 64 + static_cast<std::size_t>(std::countr_zero(word));
        break;
      }
      // Nothing left in this word: go on from the next word, a level up.
      i = i / 64 + 1;
      ++level;
    }
    // i is a set bit of `level`; every bit of the word it marks below lies
    // past the words already searched there, so take each lowest one.
    while (level-- > 0) {
      i = i * 64 +
          static_cast<std::size_t>(std::countr_zero(levels_[level][i]));
    }
    return i;
  }

 private:
  std::vector<std::vector<std::uint64_t>> levels_;  // [0] holds the members
  std::size_t size_ = 0;
};

// Bytes [offset, offset + length) of the file whose content seed is `seed`.
Bytes FileChunk(std::uint64_t seed, std::uint64_t offset,
                std::uint64_t length) {
  return Bytes::Synthetic(offset + length, seed).Slice(offset, length);
}

}  // namespace

Runner::Runner(sim::Simulation& sim, fs::Vfs& vfs, Scheduler& scheduler,
               RunnerConfig config)
    : sim_(sim), vfs_(vfs), scheduler_(scheduler), config_(config) {
  wake_ = std::make_unique<sim::Semaphore>(sim_, 0);
}

WorkflowResult Runner::Run(const Workflow& workflow) {
  WorkflowResult result;
  result.started = sim_.now();
  trace::TraceContext root;
  if (config_.tracer != nullptr) {
    root = config_.tracer->StartTrace("workflow:" + workflow.name, "workflow");
    result.trace_id = root.trace_id;
  }
  DriveProgress progress;
  Drive(workflow, &result, &progress, root);
  sim_.Run();
  if (!progress.finished) {
    // The event queue ran dry with the driver still suspended: no task can
    // ever complete (no core slot to run one on, or a Vfs call that never
    // returns). Fail the run and end its root span. A driver parked on the
    // completion semaphore is woken to return, so its frame is freed.
    const std::size_t total = workflow.tasks.size();
    result.status = status::Internal(
        "workflow driver did not finish: " +
        std::to_string(total - progress.tasks_done) + " of " +
        std::to_string(total) + " tasks not run");
    result.finished = sim_.now();
    trace::End(root);
    if (wake_->waiting() > 0) {
      abandoned_ = true;
      wake_->Release();
      sim_.Run();
      abandoned_ = false;
    }
  }
  return result;
}

sim::Task Runner::Drive(const Workflow& workflow, WorkflowResult* result,
                        DriveProgress* progress, trace::TraceContext root) {
  trace::ScopedSpan workflow_span = trace::ScopedSpan::Adopt(root);
  // Workflow setup: create the directory tree (from node 0, like the
  // submission host would).
  for (const auto& dir : workflow.directories) {
    Status made = co_await vfs_.Mkdir(fs::VfsContext{0, 0, root}, dir);
    if (!made.ok() && made.code() != ErrorCode::kExists) {
      result->status = std::move(made);
      result->finished = sim_.now();
      progress->finished = true;
      co_return;
    }
  }

  const std::size_t total = workflow.tasks.size();
  const std::size_t file_count = workflow.files.size();

  // Dependency bookkeeping: a task waits once per listed input that some
  // task produces; inputs without a producer must pre-exist in the FS. A
  // produced file releases its consumers once, when the first of its
  // producers completes.
  enum FileState : std::uint8_t { kPreexisting, kPending, kReleased };
  std::vector<FileState> file_state(file_count, kPreexisting);
  for (const TaskSpec& task : workflow.tasks) {
    for (FileId output : workflow.Outputs(task)) file_state[output] = kPending;
  }
  // Consumers of file f, in task order, are
  // consumers[consumer_begin[f], consumer_begin[f + 1]) (CSR form). Counted
  // into consumer_begin[f], summed into each range's end, then filled
  // backwards so every begin ends up at its range's start.
  std::vector<std::uint32_t> waiting(total, 0);
  std::vector<std::uint32_t> consumer_begin(file_count + 1, 0);
  for (std::size_t i = 0; i < total; ++i) {
    for (FileId input : workflow.Inputs(workflow.tasks[i])) {
      if (file_state[input] != kPending) continue;
      ++waiting[i];
      ++consumer_begin[input];
    }
  }
  for (std::size_t f = 1; f <= file_count; ++f) {
    consumer_begin[f] += consumer_begin[f - 1];
  }
  std::vector<std::uint32_t> consumers(consumer_begin[file_count]);
  for (std::size_t i = total; i-- > 0;) {
    for (FileId input : workflow.Inputs(workflow.tasks[i])) {
      if (file_state[input] != kPending) continue;
      consumers[--consumer_begin[input]] = static_cast<std::uint32_t>(i);
    }
  }

  ReadySet ready(total);
  for (std::size_t i = 0; i < total; ++i) {
    if (waiting[i] == 0) ready.Insert(i);
  }

  // Core-slot bookkeeping; slot ids double as process ids for the FUSE
  // mountpoint mapping.
  std::vector<std::uint32_t> free_cores(config_.nodes, config_.cores_per_node);
  std::vector<std::vector<std::uint32_t>> free_slots(config_.nodes);
  for (auto& slots : free_slots) {
    for (std::uint32_t s = 0; s < config_.cores_per_node; ++s) {
      slots.push_back(config_.cores_per_node - 1 - s);  // pop_back yields 0..
    }
  }

  // A handful per workflow, in order of first completion; stage_slot maps a
  // stage id to its entry (kNoSlot until the stage's first completion).
  constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
  std::vector<StageStats> stages;
  std::vector<std::uint32_t> stage_slot(workflow.stages.size(), kNoSlot);
  std::size_t running = 0;
  std::size_t& done = progress->tasks_done;
  bool fatal = false;
  // Total free core slots; lets the runner skip dispatch scans outright on a
  // saturated cluster when the scheduler guarantees failed probes are pure.
  std::uint64_t free_total =
      static_cast<std::uint64_t>(config_.nodes) * config_.cores_per_node;
  const bool skip_saturated = scheduler_.SkipWhenSaturated();

  while (done < total) {
    // Dispatch every ready task the scheduler will place right now, in
    // ascending task order. After a successful placement the scan restarts:
    // free slots changed.
    if (!fatal && (free_total > 0 || !skip_saturated)) {
      bool placed_any = true;
      while (placed_any && !ready.empty() &&
             (free_total > 0 || !skip_saturated)) {
        placed_any = false;
        std::size_t pos = 0;
        for (std::size_t index = ready.Next(0); index != ReadySet::kNone;
             index = ready.Next(index + 1), ++pos) {
          auto node = scheduler_.Place(workflow, index, free_cores);
          if (!node.has_value() && running == 0 && pos + 1 == ready.size()) {
            // Nothing is running and the scheduler deferred everything:
            // force the first ready task anywhere free to avoid livelock.
            for (std::uint32_t n = 0; n < config_.nodes; ++n) {
              if (free_cores[n] > 0) {
                node = n;
                break;
              }
            }
          }
          if (!node.has_value()) continue;
          const net::NodeId n = *node;
          assert(free_cores[n] > 0);
          --free_cores[n];
          --free_total;
          const std::uint32_t slot = free_slots[n].back();
          free_slots[n].pop_back();
          ExecuteTask(workflow, index, n, slot, root);
          ++running;
          ready.Erase(index);
          placed_any = true;
          break;
        }
      }
    }

    if (running == 0 && (fatal || ready.empty())) break;

    // Completion signal, not a lock: each finishing task Release()s once.
    // lint: allow(acquire-release) permit is produced by task completions
    co_await wake_->Acquire();
    // lint: allow(locked-return) the permit is Run()'s wake-up, not a task's
    if (abandoned_) co_return;
    assert(!completions_.empty());
    Completion completion = std::move(completions_.front());
    completions_.pop_front();
    --running;
    ++done;
    ++free_cores[completion.node];
    ++free_total;
    free_slots[completion.node].push_back(completion.slot);

    const TaskSpec& task = workflow.tasks[completion.task_index];
    std::uint32_t& slot = stage_slot[task.stage];
    if (slot == kNoSlot) {
      slot = static_cast<std::uint32_t>(stages.size());
      stages.push_back(
          StageStats{.stage = std::string(workflow.StageName(task))});
    }
    StageStats& stage = stages[slot];
    ++stage.tasks;
    stage.first_start = std::min(stage.first_start, completion.started);
    stage.last_end = std::max(stage.last_end, completion.ended);
    stage.busy += completion.ended - completion.started;
    stage.bytes_read += completion.bytes_read;
    stage.bytes_written += completion.bytes_written;
    result->bytes_read += completion.bytes_read;
    result->bytes_written += completion.bytes_written;
    if (config_.metrics != nullptr) {
      ++config_.metrics->Counter("mtc.tasks_run");
      if (!completion.status.ok()) {
        ++config_.metrics->Counter("mtc.task_failures");
      }
      config_.metrics->Counter("mtc.bytes_read") += completion.bytes_read;
      config_.metrics->Counter("mtc.bytes_written") +=
          completion.bytes_written;
      config_.metrics->Histogram("mtc.task")
          .Record(completion.ended - completion.started);
    }

    if (!completion.status.ok() && result->status.ok()) {
      result->status = completion.status;
      result->failed_task = workflow.TaskName(completion.task_index);
      fatal = true;  // stop dispatching; drain what is already running
    }

    if (completion.status.ok()) {
      for (FileId output : workflow.Outputs(task)) {
        if (file_state[output] != kPending) continue;
        file_state[output] = kReleased;
        for (std::uint32_t k = consumer_begin[output];
             k < consumer_begin[output + 1]; ++k) {
          const std::uint32_t consumer = consumers[k];
          if (--waiting[consumer] == 0) ready.Insert(consumer);
        }
      }
    }
  }

  if (done < total && result->status.ok()) {
    result->status = status::Internal(
        "workflow stalled: " + std::to_string(total - done) +
        " tasks never became runnable (missing producer or dependency cycle)");
  }
  result->finished = sim_.now();
  result->stages = std::move(stages);
  std::sort(result->stages.begin(), result->stages.end(),
            [](const StageStats& a, const StageStats& b) {
              if (a.first_start != b.first_start) {
                return a.first_start < b.first_start;
              }
              return a.stage < b.stage;
            });
  progress->finished = true;
}

sim::Task Runner::ExecuteTask(const Workflow& workflow, std::size_t index,
                              net::NodeId node, std::uint32_t slot,
                              trace::TraceContext root) {
  const TaskSpec& task = workflow.tasks[index];
  trace::ScopedSpan task_span = trace::ScopedSpan::Adopt(
      trace::ChildOn(root, workflow.TaskName(index), "task", node));
  trace::Annotate(task_span.context(), "stage", workflow.StageName(task));
  trace::Annotate(task_span.context(), "slot", std::to_string(slot));
  const fs::VfsContext ctx{node, slot, task_span.context()};
  Completion completion;
  completion.task_index = index;
  completion.node = node;
  completion.slot = slot;
  completion.started = sim_.now();
  completion.bytes_read = 0;
  completion.bytes_written = 0;

  Status status;
  for (FileId input : workflow.Inputs(task)) {
    Result<std::uint64_t> bytes =
        co_await ReadWholeFile(ctx, workflow, input);
    if (!bytes.ok()) {
      status = bytes.status();
      break;
    }
    completion.bytes_read += bytes.value();
  }

  if (status.ok() && task.cpu_time > 0) {
    trace::ScopedSpan compute(task_span.context(), "compute", "compute");
    co_await sim_.Delay(task.cpu_time);
  }

  if (status.ok()) {
    for (FileId output : workflow.Outputs(task)) {
      Status written = co_await WriteWholeFile(ctx, workflow, output);
      if (!written.ok()) {
        status = written;
        break;
      }
      completion.bytes_written += workflow.files[output].size;
    }
  }

  completion.status = std::move(status);
  completion.ended = sim_.now();
  completions_.push_back(std::move(completion));
  wake_->Release();
}

sim::Future<Result<std::uint64_t>> Runner::ReadWholeFile(
    fs::VfsContext ctx, const Workflow& workflow, FileId id) {
  const std::string_view path = workflow.Path(id);
  auto opened = co_await vfs_.Open(ctx, std::string(path));
  if (!opened.ok()) co_return opened.status();
  const fs::FileHandle handle = opened.value();
  const std::uint64_t seed = FileSeed(path);
  std::uint64_t offset = 0;
  Status status;
  while (true) {
    auto chunk = co_await vfs_.Read(ctx, handle, offset, config_.io_block);
    if (!chunk.ok()) {
      status = chunk.status();
      break;
    }
    const std::uint64_t got = chunk.value().size();
    if (got == 0) break;
    if (!FileChunk(seed, offset, got).ContentEquals(chunk.value())) {
      status = status::Internal("content mismatch in " + std::string(path) +
                                " at offset " + std::to_string(offset));
      break;
    }
    offset += got;
    if (got < config_.io_block) break;  // EOF
  }
  // lint: allow(ignored-status) teardown; `status` already holds any failure
  co_await vfs_.Close(ctx, handle);
  if (!status.ok()) co_return std::move(status);
  co_return offset;
}

sim::Future<Status> Runner::WriteWholeFile(fs::VfsContext ctx,
                                           const Workflow& workflow,
                                           FileId id) {
  const std::string_view path = workflow.Path(id);
  auto created = co_await vfs_.Create(ctx, std::string(path));
  if (!created.ok()) co_return created.status();
  const fs::FileHandle handle = created.value();
  const std::uint64_t size = workflow.files[id].size;
  const std::uint64_t seed = FileSeed(path);
  std::uint64_t offset = 0;
  Status status;
  while (offset < size) {
    const std::uint64_t len =
        std::min<std::uint64_t>(config_.io_block, size - offset);
    status = co_await vfs_.Write(ctx, handle, FileChunk(seed, offset, len));
    if (!status.ok()) break;
    offset += len;
  }
  Status closed = co_await vfs_.Close(ctx, handle);
  if (status.ok()) status = closed;
  co_return std::move(status);
}

}  // namespace memfs::mtc

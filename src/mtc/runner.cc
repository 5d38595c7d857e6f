#include "mtc/runner.h"

#include <algorithm>
#include <cassert>

namespace memfs::mtc {

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
  bool finished = false;
  Drive(workflow, &result, &finished, root);
  sim_.Run();
  assert(finished && "workflow driver deadlocked");
  return result;
}

sim::Task Runner::Drive(const Workflow& workflow, WorkflowResult* result,
                        bool* finished_flag, trace::TraceContext root) {
  trace::ScopedSpan workflow_span = trace::ScopedSpan::Adopt(root);
  // Workflow setup: create the directory tree (from node 0, like the
  // submission host would).
  for (const auto& dir : workflow.directories) {
    Status made = co_await vfs_.Mkdir(fs::VfsContext{0, 0, root}, dir);
    if (!made.ok() && made.code() != ErrorCode::kExists) {
      result->status = std::move(made);
      result->finished = sim_.now();
      *finished_flag = true;
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

  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < total; ++i) {
    if (waiting[i] == 0) ready.push_back(i);
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

  // A handful per workflow, found by name in order of first completion.
  std::vector<StageStats> stages;
  std::size_t running = 0;
  std::size_t done = 0;
  bool fatal = false;
  // Total free core slots; lets the runner skip dispatch scans outright on a
  // saturated cluster when the scheduler guarantees failed probes are pure.
  std::uint64_t free_total =
      static_cast<std::uint64_t>(config_.nodes) * config_.cores_per_node;
  const bool skip_saturated = scheduler_.SkipWhenSaturated();

  while (done < total) {
    // Dispatch every ready task the scheduler will place right now. After a
    // successful placement the scan restarts: free slots changed.
    if (!fatal && (free_total > 0 || !skip_saturated)) {
      bool placed_any = true;
      while (placed_any && !ready.empty() &&
             (free_total > 0 || !skip_saturated)) {
        placed_any = false;
        for (std::size_t pos = 0; pos < ready.size(); ++pos) {
          const std::size_t index = ready[pos];
          auto node =
              scheduler_.Place(workflow, workflow.tasks[index], free_cores);
          if (!node.has_value() && running == 0 && pos + 1 == ready.size() &&
              !placed_any) {
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
          ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(pos));
          placed_any = true;
          break;
        }
      }
    }

    if (running == 0 && (fatal || ready.empty())) break;

    // Completion signal, not a lock: each finishing task Release()s once.
    // lint: allow(acquire-release) permit is produced by task completions
    co_await wake_->Acquire();
    assert(!completions_.empty());
    Completion completion = std::move(completions_.front());
    completions_.pop_front();
    --running;
    ++done;
    ++free_cores[completion.node];
    ++free_total;
    free_slots[completion.node].push_back(completion.slot);

    const TaskSpec& task = workflow.tasks[completion.task_index];
    auto stage_it = std::find_if(
        stages.begin(), stages.end(),
        [&](const StageStats& s) { return s.stage == task.stage; });
    if (stage_it == stages.end()) {
      stage_it = stages.insert(stages.end(), StageStats{.stage = task.stage});
    }
    StageStats& stage = *stage_it;
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
      result->failed_task = task.name;
      fatal = true;  // stop dispatching; drain what is already running
    }

    if (completion.status.ok()) {
      const std::size_t old_size = ready.size();
      for (FileId output : workflow.Outputs(task)) {
        if (file_state[output] != kPending) continue;
        file_state[output] = kReleased;
        for (std::uint32_t k = consumer_begin[output];
             k < consumer_begin[output + 1]; ++k) {
          const std::uint32_t consumer = consumers[k];
          if (--waiting[consumer] == 0) ready.push_back(consumer);
        }
      }
      // `ready` stays sorted between completions (erase preserves order), so
      // only the freshly unblocked tail needs sorting before a merge — same
      // final order as the historical full std::sort, without the n log n.
      if (ready.size() > old_size) {
        const auto mid = ready.begin() + static_cast<std::ptrdiff_t>(old_size);
        std::sort(mid, ready.end());
        std::inplace_merge(ready.begin(), mid, ready.end());
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
  *finished_flag = true;
}

sim::Task Runner::ExecuteTask(const Workflow& workflow, std::size_t index,
                              net::NodeId node, std::uint32_t slot,
                              trace::TraceContext root) {
  const TaskSpec& task = workflow.tasks[index];
  trace::ScopedSpan task_span =
      trace::ScopedSpan::Adopt(trace::ChildOn(root, task.name, "task", node));
  trace::Annotate(task_span.context(), "stage", task.stage);
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
        co_await ReadWholeFile(ctx, workflow.files[input]);
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
      const File& file = workflow.files[output];
      Status written = co_await WriteWholeFile(ctx, file);
      if (!written.ok()) {
        status = written;
        break;
      }
      completion.bytes_written += file.size;
    }
  }

  completion.status = std::move(status);
  completion.ended = sim_.now();
  completions_.push_back(std::move(completion));
  wake_->Release();
}

sim::Future<Result<std::uint64_t>> Runner::ReadWholeFile(fs::VfsContext ctx,
                                                         const File& file) {
  const std::string& path = file.path;
  auto opened = co_await vfs_.Open(ctx, path);
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
    if (config_.verify_reads) {
      const Bytes expected =
          Bytes::Synthetic(offset + got, seed).Slice(offset, got);
      if (!expected.ContentEquals(chunk.value())) {
        status = status::Internal("content mismatch in " + path +
                                  " at offset " + std::to_string(offset));
        break;
      }
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
                                           const File& file) {
  auto created = co_await vfs_.Create(ctx, file.path);
  if (!created.ok()) co_return created.status();
  const fs::FileHandle handle = created.value();
  const Bytes content = Bytes::Synthetic(file.size, FileSeed(file.path));
  std::uint64_t offset = 0;
  Status status;
  while (offset < file.size) {
    const std::uint64_t len =
        std::min<std::uint64_t>(config_.io_block, file.size - offset);
    status = co_await vfs_.Write(ctx, handle, content.Slice(offset, len));
    if (!status.ok()) break;
    offset += len;
  }
  Status closed = co_await vfs_.Close(ctx, handle);
  if (status.ok()) status = closed;
  co_return std::move(status);
}

}  // namespace memfs::mtc

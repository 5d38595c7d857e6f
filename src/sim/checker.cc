#include "sim/checker.h"

#include <algorithm>
#include <sstream>

namespace memfs::sim {

namespace {

// The checker reached from the coroutine-frame lifetime hooks (sim::Task and
// sim::Future frames). A single simulation
// (and at most one checker) is live at a time in tests and tools; when
// several coexist, task frames are attributed to the earliest-attached one.
SimChecker* g_task_checker = nullptr;

}  // namespace

std::string_view ToString(WaitKind kind) {
  switch (kind) {
    case WaitKind::kSemaphore:
      return "Semaphore";
    case WaitKind::kWaitGroup:
      return "WaitGroup";
    case WaitKind::kFuture:
      return "Future";
  }
  return "?";
}

SimChecker::SimChecker(Simulation& sim) : sim_(&sim) {
  sim_->AttachChecker(this);
  if (g_task_checker == nullptr) g_task_checker = this;
}

SimChecker::~SimChecker() {
  if (g_task_checker == this) g_task_checker = nullptr;
  sim_->AttachChecker(nullptr);
}

void SimChecker::OnSuspend(std::coroutine_handle<> handle, WaitKind kind,
                           const void* primitive, std::string_view site) {
  waiting_[handle.address()] =
      Waiter{kind, primitive, std::string(site), sim_->now(), false};
}

void SimChecker::OnResume(std::coroutine_handle<> handle) {
  waiting_.erase(handle.address());
}

void SimChecker::OnSemaphoreCreate(const void* sem, std::uint64_t permits,
                                   std::string_view site) {
  semaphores_[sem] =
      SemaphoreState{std::string(site), permits, 0, /*signal=*/permits == 0};
}

void SimChecker::OnSemaphoreDestroy(const void* sem) {
  semaphores_.erase(sem);
}

void SimChecker::OnAcquire(const void* sem) {
  ++semaphores_[sem].held;  // lazily creates a record for pre-attach sems
}

void SimChecker::OnRelease(const void* sem, std::string_view site) {
  SemaphoreState& state = semaphores_[sem];
  if (state.site.empty()) state.site = std::string(site);
  if (state.held == 0 && state.signal) return;  // produces the next permit
  if (state.held == 0) {
    std::ostringstream detail;
    detail << "Semaphore \"" << state.site << "\" released with no permit "
           << "outstanding (double Release, or a Release without a matching "
           << "Acquire) at t=" << sim_->now() << "ns; initial permits="
           << state.permits;
    findings_.push_back({"semaphore-over-release", detail.str()});
    return;
  }
  --state.held;
}

void SimChecker::OnTaskCreate(const void* frame) { tasks_.insert(frame); }

void SimChecker::OnTaskDestroy(const void* frame) { tasks_.erase(frame); }

void SimChecker::ReportLostWakeups() {
  // Deterministic report order: sort by suspension time, then site.
  std::vector<Waiter*> stuck;
  for (auto& [addr, waiter] : waiting_) {
    if (!waiter.reported) stuck.push_back(&waiter);
  }
  std::sort(stuck.begin(), stuck.end(), [](const Waiter* a, const Waiter* b) {
    if (a->since != b->since) return a->since < b->since;
    return a->site < b->site;
  });
  for (Waiter* waiter : stuck) {
    waiter->reported = true;
    std::ostringstream detail;
    detail << "coroutine suspended on " << ToString(waiter->kind) << " \""
           << waiter->site << "\" since t=" << waiter->since
           << "ns was never resumed (event queue drained with the waiter "
           << "registered)";
    findings_.push_back({"lost-wakeup", detail.str()});
  }
}

void SimChecker::OnQueueDrained() { ReportLostWakeups(); }

const std::vector<CheckerFinding>& SimChecker::Finish() {
  if (finished_) return findings_;
  finished_ = true;
  ReportLostWakeups();
  // A live task frame parked on an instrumented primitive is already covered
  // by its lost-wakeup report; anything else is a leaked frame.
  std::size_t leaked = 0;
  for (const void* frame : tasks_) {
    // waiting_ is keyed by frame address, so membership is a direct lookup.
    if (waiting_.count(const_cast<void*>(frame)) == 0) ++leaked;
  }
  if (leaked > 0) {
    std::ostringstream detail;
    detail << leaked << " coroutine frame(s) still alive at "
           << "Finish() and not waiting on any instrumented primitive "
           << "(suspended on a raw awaitable or never resumed): leaked task";
    findings_.push_back({"leaked-task", detail.str()});
  }
  return findings_;
}

std::string SimChecker::Summary() const {
  std::ostringstream out;
  for (const CheckerFinding& finding : findings_) {
    out << finding.rule << ": " << finding.detail << "\n";
  }
  return out.str();
}

namespace detail {

void NoteTaskCreated(void* frame) noexcept {
  if (g_task_checker != nullptr) g_task_checker->OnTaskCreate(frame);
}

void NoteTaskDestroyed(void* frame) noexcept {
  if (g_task_checker != nullptr) g_task_checker->OnTaskDestroy(frame);
}

}  // namespace detail

}  // namespace memfs::sim

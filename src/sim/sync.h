// Synchronization primitives for simulated processes.
//
//  * Semaphore — counting semaphore; models bounded resources such as CPU
//    cores per node, buffering/prefetching "thread pool" slots, and, with a
//    count of one, the FUSE per-mountpoint lock from the paper's Fig. 10.
//  * WaitGroup — completion counter for fan-out/fan-in (wait for all stripe
//    transfers of a buffer flush, all tasks of a workflow stage, ...).
//
// All wakeups are funnelled through the Simulation event queue so waiters
// resume in FIFO order, deterministically.
//
// Both primitives accept an optional debug name (the "registration site")
// and report suspensions, wakeups and permit movements to the simulation's
// SimChecker when one is attached (sim/checker.h); unchecked runs pay one
// null test per operation.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/checker.h"
#include "sim/simulation.h"

namespace memfs::sim {

class Semaphore {
 public:
  Semaphore(Simulation& sim, std::uint64_t count,
            std::string_view name = "Semaphore")
      : sim_(&sim), count_(count), name_(name) {
    if (SimChecker* checker = sim_->checker()) {
      checker->OnSemaphoreCreate(this, count, name_);
    }
  }

  ~Semaphore() {
    if (SimChecker* checker = sim_->checker()) {
      checker->OnSemaphoreDestroy(this);
    }
  }

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct Acquirer {
    Semaphore* sem;
    bool await_ready() const noexcept {
      if (sem->count_ > 0 && sem->waiting() == 0) {
        --sem->count_;
        if (SimChecker* checker = sem->sim_->checker()) {
          checker->OnAcquire(sem);
        }
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      if (SimChecker* checker = sem->sim_->checker()) {
        checker->OnSuspend(h, WaitKind::kSemaphore, sem, sem->name_);
      }
      sem->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  // co_await sem.Acquire(); ... sem.Release();
  Acquirer Acquire() { return {this}; }

  // Non-blocking acquire.
  bool TryAcquire() {
    if (count_ > 0 && waiting() == 0) {
      --count_;
      if (SimChecker* checker = sim_->checker()) checker->OnAcquire(this);
      return true;
    }
    return false;
  }

  void Release() {
    SimChecker* checker = sim_->checker();
    if (checker != nullptr) checker->OnRelease(this, name_);
    if (waiting() > 0) {
      // Hand the permit directly to the longest waiter; it resumes through
      // the event queue at the current simulated instant.
      auto handle = waiters_[head_++];
      if (head_ * 2 >= waiters_.size()) {
        // Drop the served prefix once it is half the buffer: a drained queue
        // restarts at the front, and one that never drains stays within
        // twice its peak number of waiters.
        waiters_.erase(waiters_.begin(),
                       waiters_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
      if (checker != nullptr) {
        checker->OnAcquire(this);  // the permit passes straight to the waiter
        checker->OnResume(handle);
      }
      sim_->Resume(handle);
      return;
    }
    ++count_;
  }

  std::uint64_t available() const { return count_; }
  std::size_t waiting() const { return waiters_.size() - head_; }
  const std::string& name() const { return name_; }

 private:
  Simulation* sim_;
  std::uint64_t count_;
  std::string name_;
  // FIFO of waiters: waiters_[head_, size) in arrival order. A vector, not a
  // deque, so an uncontended semaphore allocates nothing.
  std::vector<std::coroutine_handle<>> waiters_;
  std::size_t head_ = 0;
};

class WaitGroup {
 public:
  explicit WaitGroup(Simulation& sim, std::string_view name = "WaitGroup")
      : sim_(&sim), name_(name) {}

  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void Add(std::uint64_t n = 1) { pending_ += n; }

  void Done() {
    assert(pending_ > 0 && "WaitGroup::Done without matching Add");
    if (--pending_ == 0) {
      SimChecker* checker = sim_->checker();
      for (auto handle : waiters_) {
        if (checker != nullptr) checker->OnResume(handle);
        sim_->Resume(handle);
      }
      waiters_.clear();
    }
  }

  struct Waiter {
    WaitGroup* wg;
    bool await_ready() const noexcept { return wg->pending_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      if (SimChecker* checker = wg->sim_->checker()) {
        checker->OnSuspend(h, WaitKind::kWaitGroup, wg, wg->name_);
      }
      wg->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  Waiter Wait() { return {this}; }

  std::uint64_t pending() const { return pending_; }
  const std::string& name() const { return name_; }

 private:
  Simulation* sim_;
  std::uint64_t pending_ = 0;
  std::string name_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace memfs::sim

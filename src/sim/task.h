// Fire-and-forget simulated process.
//
// A function returning sim::Task is a coroutine that starts running
// immediately when called and owns its own frame: when it finishes, the frame
// is destroyed automatically. Processes communicate through sim::Future,
// sim::Semaphore and sim::WaitGroup rather than through the Task handle, so
// there is deliberately nothing to join on here. A coroutine that produces a
// value returns sim::Future<T> instead (sim/future.h): same eager start,
// pooled frame and checker accounting, and `co_return v` fulfils it.
//
//   sim::Task Worker(Simulation& sim, WaitGroup& wg) {
//     co_await sim.Delay(units::Millis(3));
//     wg.Done();
//   }
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>

#include "sim/pool_alloc.h"

namespace memfs::sim {

namespace detail {

// Defined in checker.cc: reports frame lifetimes (sim::Task and sim::Future
// coroutines) to the active SimChecker so leaked (never-resumed) frames are
// detectable; no-ops when no checker is attached.
void NoteTaskCreated(void* frame) noexcept;
void NoteTaskDestroyed(void* frame) noexcept;

}  // namespace detail

struct Task {
  struct promise_type {
    Task get_return_object() noexcept {
      detail::NoteTaskCreated(
          std::coroutine_handle<promise_type>::from_promise(*this).address());
      return {};
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    // The simulator does not use exceptions for control flow; an escaped
    // exception in a detached process is a programming error.
    void unhandled_exception() noexcept { std::terminate(); }
    ~promise_type() {
      detail::NoteTaskDestroyed(
          std::coroutine_handle<promise_type>::from_promise(*this).address());
    }

    // Coroutine frames are the simulator's hottest heap traffic (one per
    // simulated I/O); recycle them through the size-class pool. The pool's
    // block header supplies the size, so the unsized delete is fine even for
    // frames whose size the compiler no longer knows at destruction.
    static void* operator new(std::size_t size) {
      return detail::PoolAlloc(size);
    }
    static void operator delete(void* p) noexcept { detail::PoolFree(p); }
    static void operator delete(void* p, std::size_t) noexcept {
      detail::PoolFree(p);
    }
  };
};

}  // namespace memfs::sim

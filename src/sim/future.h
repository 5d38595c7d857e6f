// One-shot future/promise pair for simulated processes.
//
// A Future<T> may be awaited by any number of coroutines; they are all
// resumed through the simulation event queue (deterministically, in await
// order) when it is fulfilled. Awaiting an already-fulfilled future does not
// suspend. Values are returned by copy so multiple waiters can each take
// one; payloads in this codebase are either small structs or `Bytes`, whose
// synthetic form is trivially cheap to copy.
//
// A Future<T> is also a coroutine return type, and that is how most futures
// are made: the coroutine starts eagerly (like sim::Task) and `co_return v`
// fulfils the future it returned. The frame finds its Simulation in its own
// arguments — a member coroutine's object exposes `simulation()`, a free
// coroutine takes a leading `sim::Simulation&`:
//
//   sim::Future<Status> Client::Put(std::string key) {   // this->simulation()
//     co_return co_await store_.Set(std::move(key));
//   }
//   sim::VoidFuture Pause(sim::Simulation& sim, SimTime t) {
//     co_await sim.Delay(t);
//     co_return sim::Done{};
//   }
//
// A Promise is for values set by someone other than the producing
// coroutine, or before it ends (a queue completing an op, a flow finishing,
// a fast path answering without a coroutine).
#pragma once

#include <cassert>
#include <concepts>
#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/checker.h"
#include "sim/pool_alloc.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace memfs::sim {

namespace detail {

template <typename T>
struct FutureState {
  explicit FutureState(Simulation* simulation) : sim(simulation) {}

  Simulation* sim;
  std::optional<T> value;
  // Almost every future has one waiter, its caller; most others have two
  // (a caller plus a Vfs decorator such as the benchmark's TimedVfs). No
  // observer waits on a future: latency is recorded where an op ends. So
  // the first two live inline and only later ones pay for the vector.
  std::coroutine_handle<> first_waiter;
  std::coroutine_handle<> second_waiter;
  std::vector<std::coroutine_handle<>> more_waiters;

  void AddWaiter(std::coroutine_handle<> handle) {
    if (!first_waiter) {
      first_waiter = handle;
    } else if (!second_waiter) {
      second_waiter = handle;
    } else {
      more_waiters.push_back(handle);
    }
  }

  void Fulfill(T v) {
    assert(!value.has_value() && "promise fulfilled twice");
    value.emplace(std::move(v));
    if (!first_waiter) return;
    Wake(first_waiter);
    first_waiter = nullptr;
    if (!second_waiter) return;
    Wake(second_waiter);
    second_waiter = nullptr;
    for (auto handle : more_waiters) Wake(handle);
    more_waiters.clear();
  }

 private:
  void Wake(std::coroutine_handle<> handle) {
    if (SimChecker* checker = sim->checker()) checker->OnResume(handle);
    sim->Resume(handle);
  }
};

// allocate_shared puts control block + state in one pooled block, so a
// future costs zero heap traffic once the pool is warm.
template <typename T>
std::shared_ptr<FutureState<T>> MakeFutureState(Simulation& sim) {
  return std::allocate_shared<FutureState<T>>(PoolAllocator<FutureState<T>>{},
                                              &sim);
}

// An object whose member coroutines can return a Future: it names the
// Simulation their frames belong to.
template <typename T>
concept HasSimulation = requires(T& object) {
  { object.simulation() } -> std::same_as<Simulation&>;
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Future {
 public:
  class promise_type;

  Future() = default;
  explicit Future(std::shared_ptr<detail::FutureState<T>> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ && state_->value.has_value(); }

  // Peek at a fulfilled value without awaiting (e.g. after Simulation::Run).
  const T& value() const {
    assert(ready());
    return *state_->value;
  }

  struct Awaiter {
    detail::FutureState<T>* state;
    bool await_ready() const noexcept { return state->value.has_value(); }
    void await_suspend(std::coroutine_handle<> h) {
      if (SimChecker* checker = state->sim->checker()) {
        checker->OnSuspend(h, WaitKind::kFuture, state, "Future");
      }
      state->AddWaiter(h);
    }
    T await_resume() const { return *state->value; }
  };

  Awaiter operator co_await() const {
    assert(state_ && "awaiting an empty Future");
    return Awaiter{state_.get()};
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

// The coroutine side of a Future: eager start, `co_return v` fulfils the
// shared state (waking waiters exactly as Promise::Set does), and the frame
// is pooled and counted like a sim::Task's so SimChecker sees it.
template <typename T>
class Future<T>::promise_type {
 public:
  // Member coroutine: the object (the implicit first argument) names the
  // Simulation.
  template <detail::HasSimulation Self, typename... Args>
  explicit promise_type(Self& self, Args&... /*args*/)
      : state_(detail::MakeFutureState<T>(self.simulation())) {}
  // Free coroutine: the Simulation is its first parameter.
  template <typename... Args>
  explicit promise_type(Simulation& sim, Args&... /*args*/)
      : state_(detail::MakeFutureState<T>(sim)) {}
  ~promise_type() {
    detail::NoteTaskDestroyed(
        std::coroutine_handle<promise_type>::from_promise(*this).address());
  }

  Future get_return_object() noexcept {
    detail::NoteTaskCreated(
        std::coroutine_handle<promise_type>::from_promise(*this).address());
    return Future(state_);
  }
  std::suspend_never initial_suspend() noexcept { return {}; }
  std::suspend_never final_suspend() noexcept { return {}; }
  void return_value(T value) { state_->Fulfill(std::move(value)); }
  void unhandled_exception() noexcept { std::terminate(); }

  static void* operator new(std::size_t size) {
    return detail::PoolAlloc(size);
  }
  static void operator delete(void* p) noexcept { detail::PoolFree(p); }
  static void operator delete(void* p, std::size_t) noexcept {
    detail::PoolFree(p);
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

template <typename T>
class Promise {
 public:
  // An empty promise placeholder; must be assigned from a real one before
  // use (lets aggregates hold a Promise member).
  Promise() = default;

  explicit Promise(Simulation& sim)
      : state_(detail::MakeFutureState<T>(sim)) {}

  bool valid() const { return state_ != nullptr; }

  Future<T> GetFuture() const {
    assert(valid());
    return Future<T>(state_);
  }

  void Set(T value) {
    assert(valid());
    state_->Fulfill(std::move(value));
  }

  bool fulfilled() const { return valid() && state_->value.has_value(); }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

// Unit type for futures that signal completion without carrying a value.
struct Done {};

using VoidFuture = Future<Done>;
using VoidPromise = Promise<Done>;

}  // namespace memfs::sim

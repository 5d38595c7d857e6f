// One-shot future/promise pair for simulated processes.
//
// A Future<T> may be awaited by any number of coroutines; they are all
// resumed through the simulation event queue (deterministically, in await
// order) when the paired Promise is fulfilled. Awaiting an already-fulfilled
// future does not suspend. Values are returned by copy so multiple waiters
// can each take one; payloads in this codebase are either small structs or
// `Bytes`, whose synthetic form is trivially cheap to copy.
#pragma once

#include <cassert>
#include <coroutine>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/checker.h"
#include "sim/pool_alloc.h"
#include "sim/simulation.h"

namespace memfs::sim {

namespace detail {

template <typename T>
struct FutureState {
  explicit FutureState(Simulation* simulation) : sim(simulation) {}

  Simulation* sim;
  std::optional<T> value;
  // Almost every future has exactly one waiter, so the first lives inline
  // and only later ones pay for the vector.
  std::coroutine_handle<> first_waiter;
  std::vector<std::coroutine_handle<>> more_waiters;

  void AddWaiter(std::coroutine_handle<> handle) {
    if (!first_waiter) {
      first_waiter = handle;
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
    for (auto handle : more_waiters) Wake(handle);
    more_waiters.clear();
  }

 private:
  void Wake(std::coroutine_handle<> handle) {
    if (SimChecker* checker = sim->checker()) checker->OnResume(handle);
    sim->Resume(handle);
  }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Future {
 public:
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

template <typename T>
class Promise {
 public:
  // An empty promise placeholder; must be assigned from a real one before
  // use (lets aggregates hold a Promise member).
  Promise() = default;

  // allocate_shared puts control block + state in one pooled block, so a
  // promise/future pair costs zero heap traffic once the pool is warm.
  explicit Promise(Simulation& sim)
      : state_(std::allocate_shared<detail::FutureState<T>>(
            detail::PoolAllocator<detail::FutureState<T>>{}, &sim)) {}

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

// Unit tests for the discrete-event core: event ordering, coroutine tasks,
// futures, semaphores, wait groups, determinism.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/future.h"
#include "sim/pool_alloc.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace memfs::sim {
namespace {

TEST(SimulationTest, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(SimulationTest, TiesBreakInSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, NestedSchedulingAdvancesTime) {
  Simulation sim;
  SimTime inner_time = 0;
  sim.Schedule(5, [&] { sim.Schedule(7, [&] { inner_time = sim.now(); }); });
  sim.Run();
  EXPECT_EQ(inner_time, 12u);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.Step());
}

// --- Coroutine tasks ---

Task SetFlagAfter(Simulation& sim, SimTime delay, bool& flag) {
  co_await sim.Delay(delay);
  flag = true;
}

TEST(TaskTest, DelayResumesAtRightTime) {
  Simulation sim;
  bool flag = false;
  SetFlagAfter(sim, 250, flag);
  EXPECT_FALSE(flag);  // suspended at the delay
  sim.Run();
  EXPECT_TRUE(flag);
  EXPECT_EQ(sim.now(), 250u);
}

TEST(TaskTest, ZeroDelayDoesNotSuspend) {
  Simulation sim;
  bool flag = false;
  SetFlagAfter(sim, 0, flag);
  EXPECT_TRUE(flag);  // ran to completion eagerly
}

TEST(TaskTest, YieldDefersToSameInstant) {
  Simulation sim;
  std::vector<int> order;
  [](Simulation& s, std::vector<int>& log) -> Task {
    log.push_back(1);
    co_await s.Yield();
    log.push_back(3);
  }(sim, order);
  order.push_back(2);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 0u);
}

// --- Future / Promise ---

TEST(FutureTest, AwaitAlreadyFulfilled) {
  Simulation sim;
  Promise<int> promise(sim);
  promise.Set(9);
  int got = 0;
  [](Future<int> f, int& out) -> Task { out = co_await f; }(
      promise.GetFuture(), got);
  sim.Run();
  EXPECT_EQ(got, 9);
}

TEST(FutureTest, MultipleWaitersAllResume) {
  Simulation sim;
  Promise<int> promise(sim);
  auto future = promise.GetFuture();
  int sum = 0;
  for (int i = 0; i < 4; ++i) {
    [](Future<int> f, int& total) -> Task { total += co_await f; }(future,
                                                                   sum);
  }
  sim.Schedule(10, [&] { promise.Set(5); });
  sim.Run();
  EXPECT_EQ(sum, 20);
}

TEST(FutureTest, InlineWaiterAndTwoMoreResumeInAwaitOrder) {
  // The first two waiters are stored inline, later ones in a side vector;
  // all three must still resume in the order they suspended.
  Simulation sim;
  Promise<int> promise(sim);
  auto future = promise.GetFuture();
  std::vector<int> order;
  for (int id = 0; id < 3; ++id) {
    [](Future<int> f, int who, std::vector<int>& log) -> Task {
      log.push_back(10 * who + co_await f);
    }(future, id, order);
  }
  EXPECT_TRUE(order.empty());  // all three suspended
  sim.Schedule(5, [&] { promise.Set(1); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 11, 21}));
}

TEST(FutureTest, ValuePeekAfterRun) {
  Simulation sim;
  Promise<int> promise(sim);
  auto future = promise.GetFuture();
  EXPECT_FALSE(future.ready());
  sim.Schedule(3, [&] { promise.Set(1); });
  sim.Run();
  ASSERT_TRUE(future.ready());
  EXPECT_EQ(future.value(), 1);
}

// --- Future as a coroutine return type ---

Future<int> Immediate(Simulation& /*sim*/, int value) { co_return value; }

TEST(FutureTest, CoroutineReturningBeforeSuspendingIsReadyAndSchedulesNothing) {
  Simulation sim;
  Future<int> future = Immediate(sim, 7);
  ASSERT_TRUE(future.ready());
  EXPECT_EQ(future.value(), 7);
  EXPECT_TRUE(sim.empty());
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 0u);
}

// The same producer written both ways: a Task twin fulfilling a Promise its
// wrapper handed out, and a Future coroutine. Three waiters log their
// resumption order.
Task ProduceInto(Simulation& sim, SimTime delay, int value,
                 Promise<int> done) {
  co_await sim.Delay(delay);
  done.Set(value);
}

Future<int> ProduceWithPromise(Simulation& sim, SimTime delay, int value) {
  Promise<int> done(sim);
  auto future = done.GetFuture();
  ProduceInto(sim, delay, value, std::move(done));
  return future;
}

Future<int> ProduceAsCoroutine(Simulation& sim, SimTime delay, int value) {
  co_await sim.Delay(delay);
  co_return value;
}

Task LogWhenReady(Future<int> future, int who, std::vector<int>& log) {
  log.push_back(10 * who + co_await future);
}

template <typename Produce>
std::pair<std::uint64_t, std::vector<int>> RunProducers(Produce produce) {
  Simulation sim;
  std::vector<int> log;
  for (int round = 0; round < 3; ++round) {
    Future<int> future = produce(sim, static_cast<SimTime>(5 - round), round);
    for (int who = 0; who < 3; ++who) LogWhenReady(future, who, log);
  }
  sim.Run();
  return {sim.EventDigest(), log};
}

TEST(FutureTest, CoroutineMatchesPromiseAndTaskEventForEvent) {
  const auto with_promise = RunProducers(ProduceWithPromise);
  const auto as_coroutine = RunProducers(ProduceAsCoroutine);
  EXPECT_EQ(with_promise.first, as_coroutine.first);
  EXPECT_EQ(with_promise.second, as_coroutine.second);
  EXPECT_EQ(as_coroutine.second,
            (std::vector<int>{2, 12, 22, 1, 11, 21, 0, 10, 20}));
}

// A member coroutine binds through the object's simulation() accessor.
class Doubler {
 public:
  explicit Doubler(Simulation& sim) : sim_(sim) {}
  Simulation& simulation() const { return sim_; }

  Future<int> Twice(int value) {
    co_await sim_.Delay(3);
    ++calls_;
    co_return 2 * value;
  }
  Future<int> TwiceConst(int value) const {
    co_await sim_.Delay(1);
    co_return 2 * value;
  }
  int calls() const { return calls_; }

 private:
  Simulation& sim_;
  int calls_ = 0;
};

TEST(FutureTest, MemberCoroutineBindsThroughSimulationAccessor) {
  Simulation sim;
  Doubler doubler(sim);
  Future<int> future = doubler.Twice(21);
  Future<int> from_const = std::as_const(doubler).TwiceConst(4);
  EXPECT_FALSE(future.ready());
  int awaited = 0;
  [](Future<int> f, int& out) -> Task { out = co_await f; }(future, awaited);
  sim.Run();
  EXPECT_EQ(future.value(), 42);
  EXPECT_EQ(from_const.value(), 8);
  EXPECT_EQ(awaited, 42);
  EXPECT_EQ(doubler.calls(), 1);
  EXPECT_EQ(sim.now(), 3u);
}

TEST(FutureTest, FreeCoroutineBindsThroughLeadingSimulation) {
  Simulation sim;
  Future<int> future = ProduceAsCoroutine(sim, 4, 9);
  EXPECT_FALSE(future.ready());
  sim.Run();
  EXPECT_EQ(future.value(), 9);
  EXPECT_EQ(sim.now(), 4u);
}

// --- Semaphore ---

Task AcquireHoldRelease(Simulation& sim, Semaphore& sem, SimTime hold,
                        std::vector<SimTime>& done_times) {
  co_await sem.Acquire();
  co_await sim.Delay(hold);
  sem.Release();
  done_times.push_back(sim.now());
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  std::vector<SimTime> done;
  for (int i = 0; i < 6; ++i) AcquireHoldRelease(sim, sem, 100, done);
  sim.Run();
  // 6 tasks, width 2, 100ns each -> waves at 100, 200, 300.
  EXPECT_EQ(done, (std::vector<SimTime>{100, 100, 200, 200, 300, 300}));
}

TEST(SemaphoreTest, FifoOrdering) {
  Simulation sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    [](Simulation& s, Semaphore& m, int id, std::vector<int>& log) -> Task {
      co_await m.Acquire();
      co_await s.Delay(10);
      log.push_back(id);
      m.Release();
    }(sim, sem, i, order);
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SemaphoreTest, FifoOrderingAcrossDrain) {
  // Three waiters drain the queue completely; two more then queue on the
  // emptied (reset) FIFO and must still wake in arrival order.
  Simulation sim;
  Semaphore sem(sim, 0);
  std::vector<int> order;
  auto waiter = [](Semaphore& m, int id, std::vector<int>& log) -> Task {
    co_await m.Acquire();
    log.push_back(id);
  };
  for (int i = 0; i < 3; ++i) waiter(sem, i, order);
  EXPECT_EQ(sem.waiting(), 3u);
  for (int i = 0; i < 3; ++i) sem.Release();
  EXPECT_EQ(sem.waiting(), 0u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));

  for (int i = 3; i < 5; ++i) waiter(sem, i, order);
  EXPECT_EQ(sem.waiting(), 2u);
  sem.Release();
  sem.Release();
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sem.available(), 0u);
  EXPECT_FALSE(sem.TryAcquire());
}

TEST(SemaphoreTest, FifoOrderingWhileQueueNeverDrains) {
  // 64 tasks take turns on one permit twice over: each re-queues behind the
  // others before the queue empties, so the FIFO keeps serving from a
  // growing buffer (and sheds its served prefix) without reordering.
  Simulation sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    [](Simulation& s, Semaphore& m, int id, std::vector<int>& log) -> Task {
      for (int round = 0; round < 2; ++round) {
        co_await m.Acquire();
        co_await s.Delay(10);
        log.push_back(id);
        m.Release();
        co_await s.Delay(1);
      }
    }(sim, sem, i, order);
  }
  sim.Run();
  std::vector<int> expected;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kTasks; ++i) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sem.waiting(), 0u);
  EXPECT_EQ(sem.available(), 1u);
}

TEST(SemaphoreTest, TryAcquire) {
  Simulation sim;
  Semaphore sem(sim, 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_TRUE(!sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

TEST(SemaphoreTest, WaitingCount) {
  Simulation sim;
  Semaphore sem(sim, 1);
  std::vector<SimTime> done;
  AcquireHoldRelease(sim, sem, 50, done);  // holds the permit
  AcquireHoldRelease(sim, sem, 50, done);
  AcquireHoldRelease(sim, sem, 50, done);
  EXPECT_EQ(sem.waiting(), 2u);
  sim.Run();
  EXPECT_EQ(sem.waiting(), 0u);
}

// --- WaitGroup ---

TEST(WaitGroupTest, WaitsForAll) {
  Simulation sim;
  WaitGroup wg(sim);
  bool all_done = false;
  for (int i = 1; i <= 3; ++i) {
    wg.Add();
    [](Simulation& s, WaitGroup& group, SimTime t) -> Task {
      co_await s.Delay(t);
      group.Done();
    }(sim, wg, static_cast<SimTime>(i * 100));
  }
  [](WaitGroup& group, bool& flag) -> Task {
    co_await group.Wait();
    flag = true;
  }(wg, all_done);
  sim.RunUntil(299);
  EXPECT_FALSE(all_done);
  sim.Run();
  EXPECT_TRUE(all_done);
  EXPECT_EQ(sim.now(), 300u);
}

TEST(WaitGroupTest, WaitOnEmptyGroupReturnsImmediately) {
  Simulation sim;
  WaitGroup wg(sim);
  bool done = false;
  [](WaitGroup& group, bool& flag) -> Task {
    co_await group.Wait();
    flag = true;
  }(wg, done);
  EXPECT_TRUE(done);
}

// --- Determinism ---

TEST(DeterminismTest, IdenticalRunsProduceIdenticalTraces) {
  auto run = [] {
    Simulation sim;
    Semaphore sem(sim, 3);
    std::vector<SimTime> done;
    for (int i = 0; i < 20; ++i) {
      AcquireHoldRelease(sim, sem, 17 + (i % 5) * 13, done);
    }
    sim.Run();
    return std::pair{done, sim.events_processed()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// --- Event heap (ISSUE 9 rewrite) ---
//
// The 4-ary pooled heap replaced std::priority_queue<Event>. Its contract is
// that pops come out in (time, insertion seq) order — the exact total order
// the old queue used — so the event stream, and therefore EventDigest(), is
// byte-identical. These tests drive randomized schedules against a reference
// model of that order and against an independently computed digest.

// Order-sensitive FNV-1a over (time, seq) pairs, mirroring Simulation's
// digest definition.
std::uint64_t ReferenceDigest(
    const std::vector<std::pair<SimTime, std::uint64_t>>& events) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [time, seq] : events) {
    mix(time);
    mix(seq);
  }
  return h;
}

TEST(EventHeapTest, RandomizedScheduleMatchesReferenceOrderAndDigest) {
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    Simulation sim;
    std::uint64_t state = 0x9e3779b97f4a7c15ull * (trial + 1);
    auto next = [&state] {  // splitmix64
      std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      return z ^ (z >> 31);
    };
    // Heavily duplicated times force the seq tie-break to decide most pops.
    std::vector<std::pair<SimTime, std::uint64_t>> expected;
    std::vector<std::pair<SimTime, std::uint64_t>> popped;
    for (std::uint64_t i = 0; i < 200; ++i) {
      const SimTime when = next() % 16;
      expected.emplace_back(when, i);
      sim.ScheduleAt(when, [&popped, &sim, seq = i] {
        popped.emplace_back(sim.now(), seq);
      });
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });  // stable = insertion order breaks ties
    sim.Run();
    ASSERT_EQ(popped, expected) << "trial " << trial;
    // The digest folds (time, internal seq); internal seqs are the insertion
    // indices here because nothing else scheduled, so the reference applies.
    EXPECT_EQ(sim.EventDigest(), ReferenceDigest(expected));
  }
}

TEST(EventHeapTest, SchedulingDuringRunKeepsTotalOrder) {
  // Callbacks scheduling new events mid-run exercise cell reuse (freed cells
  // are recycled immediately) and sift-down across chunk boundaries.
  Simulation sim;
  std::vector<std::pair<SimTime, int>> order;
  for (int i = 0; i < 8; ++i) {
    sim.ScheduleAt(10 * (i + 1), [&order, &sim, i] {
      order.emplace_back(sim.now(), i);
      // Same-time follow-up: must run after all previously scheduled events
      // at this instant (higher seq), before any later time.
      sim.Schedule(0, [&order, &sim, i] {
        order.emplace_back(sim.now(), 100 + i);
      });
    });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[2 * i].second, i);
    EXPECT_EQ(order[2 * i + 1].second, 100 + i);
    EXPECT_EQ(order[2 * i].first, order[2 * i + 1].first);
  }
}

TEST(EventHeapTest, DelayedEventRunsBeforeZeroDelayEventsAtItsInstant) {
  // Events scheduled for the current instant go through the FIFO; an event
  // scheduled earlier for that instant sits in the heap with a lower seq and
  // must still run first, and the FIFO must drain before time advances.
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(10, [&] {
    order.push_back(1);
    sim.Schedule(0, [&] { order.push_back(3); });
  });
  sim.ScheduleAt(10, [&] { order.push_back(2); });
  sim.ScheduleAt(11, [&] { order.push_back(4); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 11u);
}

TEST(EventHeapTest, RunUntilDrainsTheFifo) {
  Simulation sim;
  int fired = 0;
  // A zero-delay chain at t=0, then one at t=5 started by a timer.
  sim.Schedule(0, [&] {
    ++fired;
    sim.Schedule(0, [&] { ++fired; });
  });
  sim.Schedule(5, [&] {
    ++fired;
    sim.Schedule(0, [&] { ++fired; });
  });
  sim.RunUntil(0);
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.empty());  // the t=5 timer is still pending
  sim.RunUntil(5);
  EXPECT_EQ(fired, 4);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.now(), 5u);
}

TEST(EventHeapTest, UnrunFifoCallablesAreDestroyedWithTheSimulation) {
  auto shared = std::make_shared<int>(1);
  std::weak_ptr<int> watch = shared;
  {
    Simulation sim;
    sim.Schedule(0, [shared] { (void)shared; });  // FIFO, never run
    shared.reset();
    EXPECT_FALSE(sim.empty());
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(EventHeapTest, LargeCallablesAreBoxedCorrectly) {
  // Callables above the 56-byte inline cell budget take the boxed path;
  // both must run and destroy exactly once.
  Simulation sim;
  struct Big {
    char payload[128];
  };
  Big big{};
  big.payload[0] = 42;
  int runs = 0;
  auto shared = std::make_shared<int>(7);  // destruction tracked by use_count
  std::weak_ptr<int> watch = shared;
  sim.Schedule(5, [big, shared, &runs] {
    runs += big.payload[0] + *shared;
  });
  shared.reset();
  EXPECT_FALSE(watch.expired());  // the boxed copy keeps it alive
  sim.Run();
  EXPECT_EQ(runs, 49);
  EXPECT_TRUE(watch.expired());  // boxed callable destroyed after running
}

TEST(EventHeapTest, CancelledEventNeitherRunsNorCounts) {
  Simulation sim;
  std::vector<int> ran;
  auto shared = std::make_shared<int>(1);
  std::weak_ptr<int> watch = shared;
  const EventId doomed = sim.ScheduleAt(10, [&ran, shared] {
    (void)shared;
    ran.push_back(0);
  });
  shared.reset();
  const EventId kept = sim.ScheduleAt(20, [&ran] { ran.push_back(1); });
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(sim.Cancel(doomed));
  EXPECT_TRUE(watch.expired());  // destroyed unrun, at the cancel
  EXPECT_FALSE(sim.Cancel(doomed));  // already gone
  EXPECT_FALSE(sim.Cancel(EventId{}));  // names no event
  sim.Run();
  EXPECT_EQ(ran, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.events_processed(), 1u);
  // The cancelled event's seq (0) is consumed but never folded in.
  EXPECT_EQ(sim.EventDigest(), ReferenceDigest({{20, 1}}));

  // An id whose event ran is stale, and stays stale once its cell is reused.
  EXPECT_FALSE(sim.Cancel(kept));
  const EventId reuser = sim.Schedule(5, [&ran] { ran.push_back(2); });
  EXPECT_EQ(reuser.cell, kept.cell);
  EXPECT_FALSE(sim.Cancel(kept));

  // An event queued for the current instant is not cancellable: it runs.
  sim.ScheduleAt(30, [&] {
    const EventId now_event = sim.Schedule(0, [&ran] { ran.push_back(3); });
    EXPECT_FALSE(sim.Cancel(now_event));
  });
  sim.Run();
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 4u);
}

TEST(EventHeapTest, RandomizedCancellationsMatchReferenceOrderAndDigest) {
  constexpr std::uint64_t kEvents = 200;
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    Simulation sim;
    std::uint64_t state = 0x2545f4914f6cdd1dull * (trial + 1);
    auto next = [&state] {  // splitmix64
      std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      return z ^ (z >> 31);
    };
    // Time 0 lands in the current-instant FIFO (not cancellable); the rest
    // go through the heap. Every seventh event, when it runs, cancels
    // another one.
    std::vector<SimTime> when(kEvents);
    std::vector<std::uint64_t> target(kEvents, kEvents);
    std::vector<EventId> ids(kEvents);
    std::vector<std::pair<SimTime, std::uint64_t>> popped;
    std::vector<int> cancel_results(kEvents, -1);
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      when[i] = next() % 16;
      if (i % 7 == 0) target[i] = next() % kEvents;
    }
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      ids[i] = sim.ScheduleAt(when[i], [&, i] {
        popped.emplace_back(sim.now(), i);
        if (target[i] != kEvents) {
          cancel_results[i] = sim.Cancel(ids[target[i]]) ? 1 : 0;
        }
      });
    }
    // A third of the events are cancelled before the run.
    std::vector<bool> cancelled(kEvents, false);
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      if (next() % 3 != 0) continue;
      const bool expect = when[i] != 0;
      EXPECT_EQ(sim.Cancel(ids[i]), expect) << "trial " << trial;
      cancelled[i] = expect;
    }
    sim.Run();

    // Reference: (time, insertion) order over the survivors, replaying the
    // mid-run cancels against what has run so far.
    std::vector<std::uint64_t> order(kEvents);
    for (std::uint64_t i = 0; i < kEvents; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&when](std::uint64_t a, std::uint64_t b) {
                       return when[a] < when[b];
                     });
    std::vector<bool> ran(kEvents, false);
    std::vector<std::pair<SimTime, std::uint64_t>> expected;
    std::vector<int> expected_results(kEvents, -1);
    for (std::uint64_t i : order) {
      if (cancelled[i]) continue;
      ran[i] = true;
      expected.emplace_back(when[i], i);
      if (target[i] == kEvents) continue;
      const std::uint64_t j = target[i];
      const bool hit = !ran[j] && !cancelled[j] && when[j] != 0;
      expected_results[i] = hit ? 1 : 0;
      if (hit) cancelled[j] = true;
    }
    ASSERT_EQ(popped, expected) << "trial " << trial;
    EXPECT_EQ(cancel_results, expected_results) << "trial " << trial;
    EXPECT_EQ(sim.events_processed(), expected.size());
    EXPECT_EQ(sim.EventDigest(), ReferenceDigest(expected));
  }
}

// --- Frame pool (ISSUE 9) ---

#ifndef MEMFS_POOL_ALLOC_BYPASS
TEST(PoolAllocTest, SameSizeClassRecyclesTheBlock) {
  // LIFO free list: freeing then reallocating within a size class returns
  // the identical block (this is the property that removes frame churn).
  void* a = detail::PoolAlloc(48);
  detail::PoolFree(a);
  void* b = detail::PoolAlloc(40);  // same 64-byte class as 48
  EXPECT_EQ(a, b);
  detail::PoolFree(b);
}

TEST(PoolAllocTest, DistinctClassesDoNotShareBlocks) {
  void* small = detail::PoolAlloc(16);
  detail::PoolFree(small);
  void* large = detail::PoolAlloc(512);  // different class: no reuse
  EXPECT_NE(small, large);
  detail::PoolFree(large);
}

// Decay tests: the class under test has 2 KiB blocks (payload 2000 plus
// the header), and the pool's clock is driven by a filler block from a
// third class, which stays pooled because every tick reuses it.
constexpr std::size_t kIdlePayload = 2000;
constexpr std::size_t kIdleBlock = 2048;

// Runs `n` PoolAlloc calls that touch nothing but the filler's class.
void Tick(std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) {
    detail::PoolFree(detail::PoolAlloc(3000));
  }
}

// Advances the clock until the next PoolAlloc call runs a decay.
void TickUntilDecayIsNext() {
  Tick(detail::kPoolDecayPeriod - 1 - detail::PoolLists().calls);
}

// Crosses the next decay, then one more full period, so every class the
// caller did not touch has handed its free blocks back; leaves the clock
// just past a decay.
void DrainIdleClasses() {
  TickUntilDecayIsNext();
  Tick(detail::kPoolDecayPeriod + 1);
}

std::size_t HeldBytes() { return detail::PoolHeld().bytes; }

TEST(PoolAllocTest, BlocksIdleForAWholePeriodGoBackToTheHeap) {
  DrainIdleClasses();
  const std::size_t base = HeldBytes();
  std::vector<void*> blocks;
  for (int i = 0; i < 5; ++i) blocks.push_back(detail::PoolAlloc(kIdlePayload));
  EXPECT_EQ(HeldBytes(), base + 5 * kIdleBlock);
  EXPECT_GE(detail::PoolHeld().peak, HeldBytes());
  for (void* block : blocks) detail::PoolFree(block);
  // The first decay sees a list that was empty this period: its low-water
  // mark is 0, so nothing goes back yet.
  TickUntilDecayIsNext();
  Tick(1);
  EXPECT_EQ(HeldBytes(), base + 5 * kIdleBlock);
  // A whole period untouched: all five go back, and held bytes drop by them.
  TickUntilDecayIsNext();
  Tick(1);
  EXPECT_EQ(HeldBytes(), base);
}

TEST(PoolAllocTest, BlockFreedMidPeriodSurvivesTheNextDecay) {
  DrainIdleClasses();
  const std::size_t base = HeldBytes();
  void* a = detail::PoolAlloc(kIdlePayload);
  void* b = detail::PoolAlloc(kIdlePayload);
  void* c = detail::PoolAlloc(kIdlePayload);
  detail::PoolFree(a);
  detail::PoolFree(b);
  // This decay restarts the mark at the two idle blocks.
  TickUntilDecayIsNext();
  Tick(1);
  Tick(detail::kPoolDecayPeriod / 2);
  detail::PoolFree(c);  // mid-period: on top of the idle pair
  TickUntilDecayIsNext();
  Tick(1);
  // The idle pair went back; the block freed mid-period is still pooled and
  // is the next one handed out.
  EXPECT_EQ(HeldBytes(), base + kIdleBlock);
  void* again = detail::PoolAlloc(kIdlePayload);
  EXPECT_EQ(again, c);
  detail::PoolFree(again);
}

TEST(PoolAllocTest, SteadyChurnGivesNothingBack) {
  DrainIdleClasses();
  const std::size_t base = HeldBytes();
  // A floor of live blocks that never go away, plus a burst allocated and
  // freed again every round: the list empties each round, so the low-water
  // mark is 0 at every decay. The filler ticks along so it stays pooled too.
  constexpr std::size_t kFloor = 4;
  constexpr std::size_t kBurst = 4;
  std::vector<void*> floor;
  for (std::size_t i = 0; i < kFloor; ++i) {
    floor.push_back(detail::PoolAlloc(kIdlePayload));
  }
  const std::size_t steady = base + (kFloor + kBurst) * kIdleBlock;
  std::vector<void*> burst(kBurst);
  std::uint32_t dips = 0;  // allocs after which the pool held less
  // Four periods' worth of PoolAlloc calls cross at least four decays.
  const std::uint32_t rounds = 4 * detail::kPoolDecayPeriod / (kBurst + 1) + 1;
  for (std::uint32_t round = 0; round < rounds; ++round) {
    for (void*& block : burst) {
      block = detail::PoolAlloc(kIdlePayload);
      if (round > 0 && HeldBytes() != steady) ++dips;
    }
    for (void* block : burst) detail::PoolFree(block);
    Tick(1);
  }
  EXPECT_EQ(dips, 0u);
  EXPECT_EQ(HeldBytes(), steady);
  for (void* block : floor) detail::PoolFree(block);
}

TEST(PoolAllocTest, SameSizeClassRecyclesTheBlockAcrossADecay) {
  void* a = detail::PoolAlloc(48);
  detail::PoolFree(a);
  TickUntilDecayIsNext();
  void* b = detail::PoolAlloc(40);  // runs the decay, then pops
  EXPECT_EQ(detail::PoolLists().calls, 0u);
  EXPECT_EQ(a, b);
  detail::PoolFree(b);
}
#endif  // MEMFS_POOL_ALLOC_BYPASS

TEST(PoolAllocTest, OversizeAllocationsFallBackToTheHeap) {
  // Payloads past the largest size class bypass the free lists entirely but
  // must still round-trip through PoolFree.
  void* p = detail::PoolAlloc(64 * 1024);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, 64 * 1024);  // the block must really be that big
  detail::PoolFree(p);
}

TEST(EventHeapTest, UnrunEventsAreDestroyedWithTheSimulation) {
  auto shared = std::make_shared<int>(1);
  std::weak_ptr<int> watch = shared;
  {
    Simulation sim;
    sim.Schedule(100, [shared] { (void)shared; });
    shared.reset();
    EXPECT_FALSE(watch.expired());
  }  // ~Simulation drains the heap without running the callbacks
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace memfs::sim

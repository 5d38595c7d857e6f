// SimChecker unit tests: synthetic deadlocks (lost wakeups), semaphore
// double-release, leaked coroutine frames, and EventDigest equality across
// identical runs / inequality across differing ones.
//
// Each fixture deliberately breaks one invariant, asserts the checker names
// the right rule and primitive, then unsticks the coroutine so the test
// process stays leak-free under ASan.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>

#include "common/units.h"
#include "sim/checker.h"
#include "sim/future.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace memfs {
namespace {

sim::Task AcquireOnce(sim::Semaphore& sem, bool& resumed) {
  // lint: allow(acquire-release) deliberately unbalanced: the tests below
  co_await sem.Acquire();  // assert the checker reports this leak
  resumed = true;
}

sim::Task WaitOnGroup(sim::WaitGroup& wg, bool& resumed) {
  co_await wg.Wait();
  resumed = true;
}

sim::Task AwaitFuture(sim::Future<int> future, int& value) {
  value = co_await future;
}

sim::Task BalancedHold(sim::Simulation& sim, sim::Semaphore& sem,
                       bool& resumed) {
  co_await sem.Acquire();
  co_await sim.Delay(units::Micros(1));
  sem.Release();
  resumed = true;
}

// Parks the coroutine on an awaitable the checker does not instrument; the
// handle lands in `slot` so the test can destroy the frame afterwards.
struct Park {
  std::coroutine_handle<>* slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const { *slot = h; }
  void await_resume() const noexcept {}
};

sim::Task ParkForever(std::coroutine_handle<>& slot) { co_await Park{&slot}; }

TEST(SimCheckerTest, CleanRunHasNoFindings) {
  sim::Simulation sim;
  sim::SimChecker checker(sim);
  sim::Semaphore sem(sim, 1, "clean-permits");
  bool first = false;
  bool second = false;
  BalancedHold(sim, sem, first);
  BalancedHold(sim, sem, second);  // queues behind the first holder
  sim.Run();

  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
  EXPECT_TRUE(checker.Finish().empty()) << checker.Summary();
  EXPECT_TRUE(checker.clean());
  EXPECT_EQ(checker.waiting(), 0u);
  EXPECT_EQ(checker.live_tasks(), 0u);
}

// The acceptance fixture: a deliberately broken program whose wakeup never
// arrives. The queue drains with the waiter still parked and the checker
// names the semaphore it is stuck on.
TEST(SimCheckerTest, LostWakeupNamesTheSemaphore) {
  sim::Simulation sim;
  sim::SimChecker checker(sim);
  sim::Semaphore sem(sim, 0, "broken-fixture");
  bool resumed = false;
  AcquireOnce(sem, resumed);
  sim.Run();  // drains immediately; the acquirer is never released

  EXPECT_FALSE(resumed);
  EXPECT_EQ(checker.waiting(), 1u);
  ASSERT_FALSE(checker.findings().empty());
  EXPECT_EQ(checker.findings()[0].rule, "lost-wakeup");
  EXPECT_NE(checker.findings()[0].detail.find("Semaphore"), std::string::npos);
  EXPECT_NE(checker.findings()[0].detail.find("broken-fixture"),
            std::string::npos);

  // Unstick the coroutine so its frame is reclaimed. A zero-permit
  // semaphore is a signal, so this Release is legal.
  sem.Release();
  sim.Run();
  EXPECT_TRUE(resumed);
  checker.Finish();
  EXPECT_EQ(checker.findings().size(), 1u) << checker.Summary();
  EXPECT_EQ(checker.waiting(), 0u);
  EXPECT_EQ(checker.live_tasks(), 0u);
}

// mtc::Runner's completion pattern: finishing work Release()s a zero-permit
// signal before the dispatcher gets round to Acquire()ing it.
TEST(SimCheckerTest, SignalReleasedBeforeAcquireIsClean) {
  sim::Simulation sim;
  sim::SimChecker checker(sim);
  sim::Semaphore done(sim, 0, "completion-signal");
  done.Release();  // nobody waits yet: the permit is stored
  bool resumed = false;
  AcquireOnce(done, resumed);
  sim.Run();
  EXPECT_TRUE(resumed);
  EXPECT_TRUE(checker.Finish().empty()) << checker.Summary();
}

// A semaphore built before the checker attached is registered lazily and
// keeps the lock rule. The checker never saw its one permit taken, so the
// Release that hands a permit to the parked waiter counts as an
// over-release: coverage for the rule on the handoff path.
TEST(SimCheckerTest, OverReleaseThroughHandoffIsFlagged) {
  sim::Simulation sim;
  sim::Semaphore sem(sim, 1, "pre-attach-lock");
  ASSERT_TRUE(sem.TryAcquire());
  sim::SimChecker checker(sim);
  bool resumed = false;
  AcquireOnce(sem, resumed);  // parks: the only permit is held
  EXPECT_EQ(checker.waiting(), 1u);
  sem.Release();
  sim.Run();
  EXPECT_TRUE(resumed);
  ASSERT_EQ(checker.Finish().size(), 1u) << checker.Summary();
  EXPECT_EQ(checker.findings()[0].rule, "semaphore-over-release");
  EXPECT_NE(checker.findings()[0].detail.find("pre-attach-lock"),
            std::string::npos);
  EXPECT_EQ(checker.live_tasks(), 0u);
}

TEST(SimCheckerTest, LostWakeupNamesTheWaitGroup) {
  sim::Simulation sim;
  sim::SimChecker checker(sim);
  sim::WaitGroup wg(sim, "stage-join");
  wg.Add(1);
  bool resumed = false;
  WaitOnGroup(wg, resumed);
  sim.Run();  // Done() never called

  ASSERT_EQ(checker.findings().size(), 1u);
  EXPECT_EQ(checker.findings()[0].rule, "lost-wakeup");
  EXPECT_NE(checker.findings()[0].detail.find("WaitGroup"), std::string::npos);
  EXPECT_NE(checker.findings()[0].detail.find("stage-join"),
            std::string::npos);

  wg.Done();
  sim.Run();
  EXPECT_TRUE(resumed);
  EXPECT_TRUE(checker.Finish().size() == 1u) << checker.Summary();
  EXPECT_EQ(checker.live_tasks(), 0u);
}

TEST(SimCheckerTest, LostWakeupOnAnUnfulfilledFuture) {
  sim::Simulation sim;
  sim::SimChecker checker(sim);
  sim::Promise<int> promise(sim);
  int value = 0;
  AwaitFuture(promise.GetFuture(), value);
  sim.Run();

  ASSERT_EQ(checker.findings().size(), 1u);
  EXPECT_EQ(checker.findings()[0].rule, "lost-wakeup");
  EXPECT_NE(checker.findings()[0].detail.find("Future"), std::string::npos);

  promise.Set(42);
  sim.Run();
  EXPECT_EQ(value, 42);
  checker.Finish();
  EXPECT_EQ(checker.findings().size(), 1u);
  EXPECT_EQ(checker.live_tasks(), 0u);
}

TEST(SimCheckerTest, DoubleReleaseIsFlaggedImmediately) {
  sim::Simulation sim;
  sim::SimChecker checker(sim);
  sim::Semaphore sem(sim, 1, "over-released");
  ASSERT_TRUE(sem.TryAcquire());
  sem.Release();  // balanced
  EXPECT_TRUE(checker.clean());
  sem.Release();  // no permit outstanding

  ASSERT_EQ(checker.findings().size(), 1u);
  EXPECT_EQ(checker.findings()[0].rule, "semaphore-over-release");
  EXPECT_NE(checker.findings()[0].detail.find("over-released"),
            std::string::npos);
}

TEST(SimCheckerTest, LeakedTaskReportedAtFinish) {
  sim::Simulation sim;
  sim::SimChecker checker(sim);
  std::coroutine_handle<> parked;
  ParkForever(parked);
  sim.Run();

  // Parked on an uninstrumented awaitable: not in the wait-for registry, so
  // it is not a lost wakeup — it is a leaked frame.
  EXPECT_EQ(checker.waiting(), 0u);
  EXPECT_EQ(checker.live_tasks(), 1u);
  const auto& findings = checker.Finish();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "leaked-task");

  ASSERT_TRUE(parked);
  parked.destroy();  // reclaim the frame; the checker observes the teardown
  EXPECT_EQ(checker.live_tasks(), 0u);
}

// A Future coroutine's frame is counted like a Task's.
sim::Future<int> ParkedFuture(sim::Simulation& /*sim*/,
                              std::coroutine_handle<>& slot) {
  co_await Park{&slot};
  co_return 1;
}

sim::Future<int> DelayedFuture(sim::Simulation& sim) {
  co_await sim.Delay(units::Micros(1));
  co_return 2;
}

TEST(SimCheckerTest, FutureCoroutineParkedOnRawAwaitableIsALeakedTask) {
  sim::Simulation sim;
  sim::SimChecker checker(sim);
  std::coroutine_handle<> parked;
  sim::Future<int> future = ParkedFuture(sim, parked);
  sim.Run();

  EXPECT_FALSE(future.ready());
  EXPECT_EQ(checker.waiting(), 0u);
  EXPECT_EQ(checker.live_tasks(), 1u);
  const auto& findings = checker.Finish();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "leaked-task");

  ASSERT_TRUE(parked);
  parked.destroy();
  EXPECT_EQ(checker.live_tasks(), 0u);
}

TEST(SimCheckerTest, FinishedFutureCoroutineIsNotLeaked) {
  sim::Simulation sim;
  sim::SimChecker checker(sim);
  sim::Future<int> future = DelayedFuture(sim);
  int value = 0;
  AwaitFuture(future, value);
  EXPECT_EQ(checker.live_tasks(), 2u);  // the producer and its waiter
  sim.Run();

  EXPECT_EQ(value, 2);
  EXPECT_EQ(checker.live_tasks(), 0u);
  EXPECT_TRUE(checker.Finish().empty()) << checker.Summary();
}

sim::Task DelayTwice(sim::Simulation& sim, std::uint64_t first,
                     std::uint64_t second) {
  co_await sim.Delay(first);
  co_await sim.Delay(second);
}

std::uint64_t DigestOf(std::uint64_t spread) {
  sim::Simulation sim;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    DelayTwice(sim, i * spread, spread);
  }
  sim.Run();
  return sim.EventDigest();
}

TEST(EventDigestTest, IdenticalRunsProduceIdenticalDigests) {
  EXPECT_EQ(DigestOf(units::Micros(100)), DigestOf(units::Micros(100)));
}

TEST(EventDigestTest, DifferentSchedulesProduceDifferentDigests) {
  EXPECT_NE(DigestOf(units::Micros(100)), DigestOf(units::Micros(200)));
}

TEST(EventDigestTest, DigestCoversEveryProcessedEvent) {
  sim::Simulation sim;
  const std::uint64_t before = sim.EventDigest();
  DelayTwice(sim, units::Micros(5), units::Micros(5));
  sim.Run();
  EXPECT_NE(sim.EventDigest(), before);
  EXPECT_GT(sim.events_processed(), 0u);
}

// --- Coroutine-frame recycler (ISSUE 9) ---
//
// Task promise frames now come from the size-class recycling pool
// (sim/pool_alloc.h): a finished frame's memory is immediately handed to the
// next same-sized frame. The checker tracks frames by address, so recycling
// is exactly the aliasing scenario that could mask leaks or double-frees —
// these tests pin that detection still fires.

TEST(SimCheckerRecyclerTest, RecycledFramesStayBalanced) {
  sim::Simulation sim;
  sim::SimChecker checker(sim);
  sim::Semaphore sem(sim, 2, "churn-permits");
  // Sequential waves: every wave's frames are freed before the next wave
  // allocates, so (without sanitizer bypass) later waves run entirely on
  // recycled frames — live-task accounting must stay exact through reuse.
  for (int wave = 0; wave < 50; ++wave) {
    bool a = false;
    bool b = false;
    BalancedHold(sim, sem, a);
    BalancedHold(sim, sem, b);
    sim.Run();
    EXPECT_TRUE(a);
    EXPECT_TRUE(b);
    EXPECT_EQ(checker.live_tasks(), 0u) << "wave " << wave;
  }
  EXPECT_TRUE(checker.Finish().empty()) << checker.Summary();
}

TEST(SimCheckerRecyclerTest, LeakDetectionSurvivesFrameReuse) {
  sim::Simulation sim;
  sim::SimChecker checker(sim);
  // Churn frames through the pool first, so the leaked frame below occupies
  // recycled memory whose previous tenant was properly destroyed — a stale
  // address-keyed entry would make this report a false double or nothing.
  sim::Semaphore sem(sim, 1, "warmup-permits");
  for (int i = 0; i < 20; ++i) {
    bool done = false;
    BalancedHold(sim, sem, done);
    sim.Run();
    ASSERT_TRUE(done);
  }
  EXPECT_EQ(checker.live_tasks(), 0u);

  std::coroutine_handle<> parked;
  ParkForever(parked);
  sim.Run();
  EXPECT_EQ(checker.live_tasks(), 1u);
  checker.Finish();
  ASSERT_FALSE(checker.findings().empty());
  EXPECT_EQ(checker.findings()[0].rule, "leaked-task");

  parked.destroy();  // reclaim the deliberately parked frame
  EXPECT_EQ(checker.live_tasks(), 0u);
}

}  // namespace
}  // namespace memfs

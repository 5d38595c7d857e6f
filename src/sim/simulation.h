// Deterministic discrete-event simulation core.
//
// Simulated time is a nanosecond counter. All activity — timer expiry,
// coroutine resumption, RPC completion — flows through one event queue
// ordered by (time, insertion sequence), so a given program produces a
// bit-identical event order on every run. This determinism is what makes the
// reproduced figures stable and the tests exact.
//
// The queue is built for the million-event runs of the scale benches: a
// 4-ary heap of 24-byte plain nodes {time, seq, cell}, with the type-erased
// callbacks stored out-of-line in recycled fixed-size cells (chunked slab —
// cell addresses are stable, so a running callback may schedule freely).
// Heap nodes compare one 128-bit key (time, seq), and sift-down picks the
// least of four children branch-free. Most events are scheduled for the
// current instant (coroutine resumptions, yields, promise fulfilments); those
// bypass the heap through a FIFO. Every heap entry due at the current instant
// was scheduled before the clock reached it, so it carries a lower seq than
// anything in the FIFO: Step pops those first, then drains the FIFO, and the
// pop order is exactly (time, seq) either way. Neither scheduling nor
// dispatch allocates once the slab is warm; captures larger than a cell fall
// back to one boxed allocation.
//
// Cancellation: Schedule returns an EventId {cell, seq}, and Cancel takes a
// still-pending heap event out of the queue and destroys its callable unrun.
// A cancelled event consumes its seq but is never counted in
// events_processed() nor folded into EventDigest(). The heap records the slot
// of each pending cell in a per-cell array (one 32-bit store per node move),
// so Cancel finds its entry in O(1) and removes it in O(log n); the seq found
// at that slot tells a pending event from one that already ran or whose cell
// was reused. An event in the current-instant FIFO is not cancellable: it
// runs, so a callable that may be cancelled at its own instant must still
// check that it is current.
//
// Concurrency model: simulated processes are C++20 coroutines — sim::Task
// when fire-and-forget, sim::Future<T> when they produce a value — that
// suspend on awaitables (Delay, Future, Semaphore, ...) and are resumed by
// the event loop. A Future coroutine finds its Simulation in its own
// arguments (an object's simulation() accessor, or a leading Simulation&
// parameter); there is no ambient "current simulation". There is no real
// threading inside a Simulation; "thread pools" in the file-system clients
// are modelled as bounded concurrent coroutines, which matches how the
// paper's buffering/prefetching threads behave (they are I/O-bound and
// serialize on the network anyway).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace memfs::sim {

using SimTime = std::uint64_t;  // nanoseconds since simulation start

// A (primary, secondary) pair of 64-bit sort keys as one unsigned 128-bit
// key, so a heap orders its nodes with a single branch-free compare.
__extension__ using Key128 = unsigned __int128;
inline Key128 PackKey(std::uint64_t primary, std::uint64_t secondary) {
  return (static_cast<Key128>(primary) << 64) | secondary;
}

class SimChecker;  // opt-in correctness instrumentation (sim/checker.h)

// Passive observer of the simulated clock (see src/monitor): notified from
// Step() when the event about to run carries a later timestamp than the
// previous one, before its callback executes — i.e. at a moment when no
// event is mid-flight and all state reflects everything up to the old time.
// Observers read state only. They MUST NOT schedule events, resume
// coroutines, or draw randomness: attaching one cannot add queue entries or
// consume sequence numbers, so the event stream — and EventDigest() — is
// bit-identical with an observer attached or absent.
class ClockObserver {
 public:
  virtual ~ClockObserver() = default;
  virtual void OnClockAdvance(SimTime next) = 0;
};

// Names one scheduled event for Simulation::Cancel. A default-constructed id
// names no event.
struct EventId {
  std::uint32_t cell = 0;
  std::uint64_t seq = ~std::uint64_t{0};  // never issued
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  SimTime now() const { return now_; }

  // Schedules `fn` to run `delay` nanoseconds from now. Events scheduled for
  // the same instant run in scheduling order. The id may be passed to Cancel.
  template <typename F>
  EventId Schedule(SimTime delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  template <typename F>
  EventId ScheduleAt(SimTime when, F&& fn) {
    assert(when >= now_ && "cannot schedule into the simulated past");
    using Fn = std::decay_t<F>;
    const std::uint32_t cell_index = AllocCell();
    Cell& cell = CellAt(cell_index);
    if constexpr (sizeof(Fn) <= kCellBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(cell.storage)) Fn(std::forward<F>(fn));
      cell.op = &InlineOp<Fn>;
    } else {
      ::new (static_cast<void*>(cell.storage))
          Fn*(new Fn(std::forward<F>(fn)));
      cell.op = &BoxedOp<Fn>;
    }
    const HeapNode node{when, next_seq_++, cell_index};
    if (when == now_) {
      now_queue_.push_back(node);
    } else {
      HeapPush(node);
    }
    return {cell_index, node.seq};
  }

  // Takes a pending event out of the queue and destroys its callable unrun.
  // Returns false, and does nothing, when `id` already ran, was cancelled, is
  // queued for the current instant (it will run), or names no event.
  bool Cancel(EventId id);

  // Schedules resumption of a suspended coroutine through the event queue so
  // that wakeups interleave deterministically with timers.
  void Resume(std::coroutine_handle<> handle, SimTime delay = 0) {
    Schedule(delay, ResumeFn{handle});
  }

  // Runs one event. Returns false when the queue is empty.
  bool Step();

  // Runs until the event queue drains. Returns the final simulated time.
  SimTime Run();

  // Runs until the queue drains or simulated time would pass `deadline`.
  SimTime RunUntil(SimTime deadline);

  bool empty() const {
    return heap_.empty() && now_head_ == now_queue_.size();
  }
  std::uint64_t events_processed() const { return events_processed_; }

  // Order-sensitive FNV-1a digest over the (time, sequence) pair of every
  // event processed so far. Because the event queue is the sole source of
  // interleaving, two runs of the same seeded program are bit-identical iff
  // their digests match — the determinism gate (tools/determinism_gate)
  // double-runs every workload in its table and compares these.
  std::uint64_t EventDigest() const { return digest_; }

  // Correctness instrumentation (see sim/checker.h). Managed by SimChecker's
  // constructor/destructor; primitives consult checker() on every suspend /
  // resume and pay one null test when no checker is attached.
  void AttachChecker(SimChecker* checker) { checker_ = checker; }
  SimChecker* checker() const { return checker_; }

  // Clock observation (see ClockObserver above). One observer at a time;
  // managed by the observer's constructor/destructor. Step() pays one null
  // test when none is attached.
  void AttachClockObserver(ClockObserver* observer) {
    clock_observer_ = observer;
  }
  ClockObserver* clock_observer() const { return clock_observer_; }

  // Awaitable: co_await sim.Delay(ns) suspends the calling coroutine for the
  // given simulated duration.
  struct DelayAwaiter {
    Simulation* sim;
    SimTime delay;
    bool await_ready() const noexcept { return delay == 0; }
    void await_suspend(std::coroutine_handle<> h) { sim->Resume(h, delay); }
    void await_resume() const noexcept {}
  };

  DelayAwaiter Delay(SimTime nanos) { return {this, nanos}; }

  // Awaitable that always suspends and requeues, yielding to other events at
  // the current instant (a cooperative "sched_yield").
  struct YieldAwaiter {
    Simulation* sim;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { sim->Resume(h, 0); }
    void await_resume() const noexcept {}
  };

  YieldAwaiter Yield() { return {this}; }

 private:
  // Inline storage for event callbacks. 56 payload bytes + the op pointer
  // fill one cache line; the hot captures (coroutine handles, {this, id}
  // pairs, a shared_ptr promise) all fit.
  static constexpr std::size_t kCellBytes = 56;
  static constexpr std::size_t kCellsPerChunk = 1024;

  // op(storage, run): invokes (run) or just destroys (!run) the callable.
  using CellOp = void (*)(void*, bool);

  struct alignas(64) Cell {
    alignas(std::max_align_t) unsigned char storage[kCellBytes];
    CellOp op;
  };

  struct HeapNode {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t cell;
  };

  struct ResumeFn {
    std::coroutine_handle<> handle;
    void operator()() const { handle.resume(); }
  };

  template <typename Fn>
  static void InlineOp(void* storage, bool run) {
    Fn* fn = std::launder(reinterpret_cast<Fn*>(storage));
    if (run) (*fn)();
    fn->~Fn();
  }

  template <typename Fn>
  static void BoxedOp(void* storage, bool run) {
    Fn** box = std::launder(reinterpret_cast<Fn**>(storage));
    if (run) (**box)();
    delete *box;
  }

  Cell& CellAt(std::uint32_t index) {
    return cell_chunks_[index / kCellsPerChunk][index % kCellsPerChunk];
  }

  std::uint32_t AllocCell() {
    if (!free_cells_.empty()) {
      const std::uint32_t index = free_cells_.back();
      free_cells_.pop_back();
      return index;
    }
    const std::uint32_t index = cell_count_++;
    if (index / kCellsPerChunk == cell_chunks_.size()) {
      cell_chunks_.push_back(std::make_unique<Cell[]>(kCellsPerChunk));
      heap_slot_.resize(cell_chunks_.size() * kCellsPerChunk);
    }
    return index;
  }

  static Key128 KeyOf(const HeapNode& node) {
    return PackKey(node.time, node.seq);
  }
  static bool NodeBefore(const HeapNode& a, const HeapNode& b) {
    return KeyOf(a) < KeyOf(b);
  }

  void HeapPlace(std::size_t slot, const HeapNode& node) {
    heap_[slot] = node;
    heap_slot_[node.cell] = static_cast<std::uint32_t>(slot);
  }
  void HeapPush(HeapNode node);
  HeapNode HeapPop();
  void SiftUp(std::size_t slot, const HeapNode& node);
  void SiftDown(std::size_t slot, const HeapNode& node);
  HeapNode NowQueuePop();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t digest_ = 14695981039346656037ull;  // FNV-1a offset basis
  SimChecker* checker_ = nullptr;
  ClockObserver* clock_observer_ = nullptr;
  std::vector<HeapNode> heap_;  // 4-ary min-heap on (time, seq)
  // Per cell: its slot in heap_ while it is pending there; stale otherwise
  // (Cancel checks the seq found at that slot).
  std::vector<std::uint32_t> heap_slot_;
  // FIFO of events scheduled at now_, in seq order; [now_head_, size) are
  // pending. Emptied (capacity kept) each time it drains, which always
  // happens before the clock advances.
  std::vector<HeapNode> now_queue_;
  std::size_t now_head_ = 0;
  std::vector<std::unique_ptr<Cell[]>> cell_chunks_;
  std::vector<std::uint32_t> free_cells_;
  std::uint32_t cell_count_ = 0;
};

}  // namespace memfs::sim

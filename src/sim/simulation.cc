#include "sim/simulation.h"

#include <cassert>

#include "sim/checker.h"

namespace memfs::sim {

namespace {

// Order-sensitive FNV-1a: folds each byte of `value` into the running hash.
std::uint64_t FnvMix(std::uint64_t hash, std::uint64_t value) {
  constexpr std::uint64_t kFnvPrime = 1099511628211ull;
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

Simulation::~Simulation() {
  // Destroy never-run callbacks (e.g. a RunUntil stopped mid-workload). The
  // cells themselves die with cell_chunks_.
  auto destroy = [this](const HeapNode& node) {
    Cell& cell = CellAt(node.cell);
    cell.op(cell.storage, /*run=*/false);
  };
  for (const HeapNode& node : heap_) destroy(node);
  for (std::size_t i = now_head_; i < now_queue_.size(); ++i) {
    destroy(now_queue_[i]);
  }
}

void Simulation::HeapPush(HeapNode node) {
  heap_.push_back(node);
  SiftUp(heap_.size() - 1, node);
}

// Moves the hole at `slot` up until `node` fits: parent of i is (i-1)/4.
void Simulation::SiftUp(std::size_t slot, const HeapNode& node) {
  while (slot > 0) {
    const std::size_t parent = (slot - 1) >> 2;
    if (!NodeBefore(node, heap_[parent])) break;
    HeapPlace(slot, heap_[parent]);
    slot = parent;
  }
  HeapPlace(slot, node);
}

// Moves the hole at `slot` down until `node` fits: children of i are
// 4i+1 .. 4i+4. A full set of four is reduced by a branch-free tournament.
void Simulation::SiftDown(std::size_t slot, const HeapNode& node) {
  const std::size_t size = heap_.size();
  while (true) {
    const std::size_t first = (slot << 2) + 1;
    if (first >= size) break;
    std::size_t best;
    if (first + 4 <= size) {
      const HeapNode* c = &heap_[first];
      const std::size_t a = first + NodeBefore(c[1], c[0]);
      const std::size_t b = first + 2 + NodeBefore(c[3], c[2]);
      best = NodeBefore(heap_[b], heap_[a]) ? b : a;
    } else {
      best = first;
      for (std::size_t c = first + 1; c < size; ++c) {
        if (NodeBefore(heap_[c], heap_[best])) best = c;
      }
    }
    if (!NodeBefore(heap_[best], node)) break;
    HeapPlace(slot, heap_[best]);
    slot = best;
  }
  HeapPlace(slot, node);
}

Simulation::HeapNode Simulation::HeapPop() {
  assert(!heap_.empty());
  const HeapNode top = heap_.front();
  const HeapNode last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0, last);
  return top;
}

bool Simulation::Cancel(EventId id) {
  if (id.cell >= cell_count_) return false;
  const std::size_t slot = heap_slot_[id.cell];
  // A cell that ran, sits in the FIFO or was reused has a stale slot, where
  // some other seq (or nothing) is found.
  if (slot >= heap_.size() || heap_[slot].seq != id.seq) return false;
  const HeapNode last = heap_.back();
  heap_.pop_back();
  if (slot < heap_.size()) {
    // The last node refills the hole; it may belong above it or below it.
    if (slot > 0 && NodeBefore(last, heap_[(slot - 1) >> 2])) {
      SiftUp(slot, last);
    } else {
      SiftDown(slot, last);
    }
  }
  Cell& cell = CellAt(id.cell);
  cell.op(cell.storage, /*run=*/false);
  free_cells_.push_back(id.cell);
  return true;
}

Simulation::HeapNode Simulation::NowQueuePop() {
  const HeapNode node = now_queue_[now_head_++];
  if (now_head_ == now_queue_.size()) {
    now_queue_.clear();
    now_head_ = 0;
  }
  return node;
}

bool Simulation::Step() {
  const bool now_pending = now_head_ < now_queue_.size();
  if (heap_.empty() && !now_pending) return false;
  // A heap entry due now was scheduled before the clock reached now_, so it
  // precedes every FIFO entry; FIFO entries precede later heap entries.
  const bool from_heap =
      !heap_.empty() && (!now_pending || heap_.front().time == now_);
  const HeapNode node = from_heap ? HeapPop() : NowQueuePop();
  // Tell the clock observer time is about to advance, before the event at
  // the new instant runs: observed state is exactly "everything up to the
  // old time", which is what makes window samples exact. Observers never
  // touch the queue, so the digest below is unaffected.
  if (clock_observer_ != nullptr && node.time > now_) {
    clock_observer_->OnClockAdvance(node.time);
  }
  now_ = node.time;
  ++events_processed_;
  digest_ = FnvMix(FnvMix(digest_, node.time), node.seq);
  Cell& cell = CellAt(node.cell);
  cell.op(cell.storage, /*run=*/true);
  // Recycle only after the callback finished: events it scheduled must not
  // reuse the cell whose storage is still live above.
  free_cells_.push_back(node.cell);
  return true;
}

SimTime Simulation::Run() {
  while (Step()) {
  }
  // The queue drained; any coroutine still registered as waiting can never
  // be resumed — report it as a lost wakeup.
  if (checker_ != nullptr) checker_->OnQueueDrained();
  return now_;
}

SimTime Simulation::RunUntil(SimTime deadline) {
  // Events at now_ (heap or FIFO) are due whenever now_ <= deadline.
  while ((now_head_ < now_queue_.size() && now_ <= deadline) ||
         (!heap_.empty() && heap_.front().time <= deadline)) {
    Step();
  }
  if (now_ < deadline) {
    if (clock_observer_ != nullptr) clock_observer_->OnClockAdvance(deadline);
    now_ = deadline;
  }
  return now_;
}

}  // namespace memfs::sim

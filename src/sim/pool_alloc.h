// Size-class recycling allocator for high-churn simulation objects:
// coroutine frames (sim::Task and sim::Future frames via their promise
// types' operator new overloads) and Future shared state. The simulator
// allocates millions of short-lived, identically-sized blocks per run;
// recycling them through per-thread free lists removes the dominant
// allocation cost without changing any observable behaviour — addresses
// never feed hashing, ordering or the event digest.
//
// Lifetime rules (see DESIGN.md §11):
//  * Blocks are recycled per size class through a LIFO free list. Each
//    class remembers the fewest blocks its list held since the last decay
//    (its low-water mark). Every kPoolDecayPeriod PoolAlloc calls, each class
//    hands that many blocks back to the heap — the bottom of its list, which
//    no pop touched all period — and restarts the mark at what is left.
//    Blocks freed during the period and the hot top of the list stay pooled,
//    so a class that churns steadily keeps its blocks, while one whose burst
//    is over (a phase's queued stripe frames) gives them back within two
//    periods. Without the decay the pool would hold the sum of every class's
//    own peak for the rest of the thread, not the peak of what is live.
//  * What is left is freed at thread exit. PoolHeld() reports the bytes the
//    pool holds (live blocks plus free lists) and their peak, per thread.
//  * A 16-byte header in front of every block records its size class, so
//    frees need no size (coroutine frames may be freed through the unsized
//    operator delete).
//  * Under AddressSanitizer / ThreadSanitizer the pool degrades to plain
//    new/delete so the sanitizers keep seeing every frame's true lifetime
//    (use-after-free on a recycled frame would otherwise go unnoticed).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MEMFS_POOL_ALLOC_BYPASS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MEMFS_POOL_ALLOC_BYPASS 1
#endif
#endif

namespace memfs::sim::detail {

inline constexpr std::size_t kPoolClassStep = 64;
inline constexpr std::size_t kPoolClasses = 64;  // up to 4 KiB payloads
inline constexpr std::size_t kPoolHeader = 16;   // keeps max_align_t alignment
inline constexpr std::uint64_t kPoolOversize = ~0ull;

// The decay period, in PoolAlloc calls. Swept with memfs_bench
// --child=plain on seed 1 (median peak RSS of 3 runs, 4-vCPU Xeon VM):
// 2^12 / 2^14 / 2^16 / 2^18 gave `blast` 25.4 / 25.6 / 27.0 / 29.9 MiB and
// `montage` 32.9 / 32.9 / 33.4 / 33.8 MiB (32.5 and 36.0 MiB before the
// pool decayed), for 0.573 / 0.561 / 0.554 / 0.547 heap allocations per
// event on `blast`. 2^14 keeps nearly all of the memory for 2.6% more
// allocations than 2^18.
inline constexpr std::uint32_t kPoolDecayPeriod = std::uint32_t{1} << 14;

// Bytes of pool-class blocks (live or on a free list), per thread.
struct PoolHeldBytes {
  std::size_t bytes = 0;
  std::size_t peak = 0;
};

struct PoolClass {
  void* head = nullptr;    // LIFO free list, linked through each block
  std::uint32_t free = 0;  // blocks on the list
  std::uint32_t low = 0;   // fewest blocks on the list since the last decay
};

struct PoolFreeLists {
  std::array<PoolClass, kPoolClasses> classes{};
  std::uint32_t calls = 0;  // PoolAlloc calls since the last decay
  PoolHeldBytes held;

  // Returns each class's low-water-mark blocks to the heap. They are the
  // bottom of the list: pops only take from the top, so the list never
  // shrank into them all period.
  void Decay() {
    for (std::size_t i = 0; i < kPoolClasses; ++i) {
      PoolClass& c = classes[i];
      if (c.low > 0) {
        void** link = &c.head;
        for (std::uint32_t keep = c.free - c.low; keep > 0; --keep) {
          link = static_cast<void**>(*link);
        }
        Release(*link);
        *link = nullptr;
        c.free -= c.low;
        held.bytes -= std::size_t{c.low} * (i + 1) * kPoolClassStep;
      }
      c.low = c.free;
    }
  }

  static void Release(void* block) {
    while (block != nullptr) {
      void* next = *static_cast<void**>(block);
      ::operator delete(block);
      block = next;
    }
  }

  ~PoolFreeLists() {
    for (const PoolClass& c : classes) Release(c.head);
  }
};

inline PoolFreeLists& PoolLists() {
  thread_local PoolFreeLists lists;
  return lists;
}

// This thread's pool footprint: current and peak held bytes.
inline PoolHeldBytes PoolHeld() { return PoolLists().held; }

// Allocates `size` payload bytes from the recycling pool.
inline void* PoolAlloc(std::size_t size) {
#ifdef MEMFS_POOL_ALLOC_BYPASS
  return ::operator new(size);
#else
  PoolFreeLists& lists = PoolLists();
  if (++lists.calls == kPoolDecayPeriod) {
    lists.calls = 0;
    lists.Decay();
  }
  const std::size_t need = size + kPoolHeader;
  const std::size_t cls = (need + kPoolClassStep - 1) / kPoolClassStep;
  if (cls > kPoolClasses) {
    void* raw = ::operator new(need);
    *static_cast<std::uint64_t*>(raw) = kPoolOversize;
    return static_cast<char*>(raw) + kPoolHeader;
  }
  PoolClass& c = lists.classes[cls - 1];
  void* raw = c.head;
  if (raw != nullptr) {
    c.head = *static_cast<void**>(raw);
    if (--c.free < c.low) c.low = c.free;
  } else {
    raw = ::operator new(cls * kPoolClassStep);
    lists.held.bytes += cls * kPoolClassStep;
    if (lists.held.bytes > lists.held.peak) lists.held.peak = lists.held.bytes;
  }
  *static_cast<std::uint64_t*>(raw) = cls;
  return static_cast<char*>(raw) + kPoolHeader;
#endif
}

inline void PoolFree(void* p) noexcept {
#ifdef MEMFS_POOL_ALLOC_BYPASS
  ::operator delete(p);
#else
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kPoolHeader;
  const std::uint64_t cls = *static_cast<std::uint64_t*>(raw);
  if (cls == kPoolOversize) {
    ::operator delete(raw);
    return;
  }
  PoolClass& c = PoolLists().classes[cls - 1];
  *static_cast<void**>(raw) = c.head;
  c.head = raw;
  ++c.free;
#endif
}

// Minimal allocator over the pool for std::allocate_shared (Future state).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) {
    if (n == 1) return static_cast<T*>(PoolAlloc(sizeof(T)));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1) {
      PoolFree(p);
      return;
    }
    ::operator delete(p);
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

}  // namespace memfs::sim::detail

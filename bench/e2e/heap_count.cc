// Global allocation counter behind sim.heap_allocs_per_event, as in
// bench/micro_latency_profile.cc: replacing operator new/delete covers every
// allocation of the binary (replacement is a link-time property). The
// over-aligned forms matter: the simulator's event cells are alignas(64).
// The operators live in their own TU so no allocation of the benchmark is
// inlined next to them.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  operator delete(p);
}

namespace memfs::bench {

std::uint64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace memfs::bench

// heap_counter.hpp — a counting global allocator for zero-allocation tests.
//
// Replaces the global operator new/delete so every C++ heap allocation in
// the test binary bumps g_heap_allocs; "steady state does not allocate" is
// then a plain counter delta. OpenMP's internal mallocs bypass operator new
// (runtime pool management, not per-run tensor traffic).
//
// Replacement allocation functions may not be inline, so include this header
// from exactly one translation unit per test binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace pdnn::test_support {
inline std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace pdnn::test_support

// The malloc/free pairing across replaced operator new/delete is the point
// of a counting allocator; silence the pairing heuristic.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  pdnn::test_support::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  pdnn::test_support::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Global allocation probe for allocation-count assertions: plain
// malloc-backed replacements of the unaligned operator new/delete (the
// containers under test all allocate through the throwing operator new)
// that count every operator-new call in the process. A test reads
// g_alloc_count around the code under test.
//
// Replacement operators may be defined only once per program, so exactly
// one source file of a test executable includes this header.

#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

inline std::atomic<std::uint64_t> g_alloc_count{0};

// GCC inlines these replacements into their callers and, not seeing that
// malloc pairs with free here, reports each inlined delete as a mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// A counting replacement for the global operator new: while g_counting is
// set, every heap allocation any thread makes adds one to g_allocations.
// Include it from exactly one source file of a test executable (a
// replacement allocation function is defined once per program and may not
// be inline).
#ifndef PARTDB_TESTS_COUNTING_NEW_H_
#define PARTDB_TESTS_COUNTING_NEW_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#endif  // PARTDB_TESTS_COUNTING_NEW_H_

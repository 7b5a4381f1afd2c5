// A counting replacement for the global operator new: while g_counting is
// set, every heap allocation any thread makes adds one to g_allocations.
// Each block also carries a tag naming the thread that allocated it, and a
// delete made while g_counting is set on another thread adds one to
// g_cross_thread_frees. Include it from exactly one source file of a test
// executable (a replacement allocation function is defined once per program
// and may not be inline).
#ifndef PARTDB_TESTS_COUNTING_NEW_H_
#define PARTDB_TESTS_COUNTING_NEW_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_cross_thread_frees{0};

std::atomic<uint64_t> g_next_thread_tag{1};

/// This thread's allocation tag: 1, 2, ... in the order threads first
/// allocate.
uint64_t ThreadTag() {
  thread_local const uint64_t tag = g_next_thread_tag.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

/// The tag sits in a header in front of each block, sized to keep the
/// block's alignment.
constexpr size_t kTagHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
static_assert(kTagHeader >= sizeof(uint64_t));
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n + kTagHeader)) {
    *static_cast<uint64_t*>(p) = ThreadTag();
    return static_cast<char*>(p) + kTagHeader;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kTagHeader;
  if (g_counting.load(std::memory_order_relaxed) &&
      *static_cast<const uint64_t*>(block) != ThreadTag()) {
    g_cross_thread_frees.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(block);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

#endif  // PARTDB_TESTS_COUNTING_NEW_H_

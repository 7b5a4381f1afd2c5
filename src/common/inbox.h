// Inbox<T>: the one queue-and-park mechanism of the process's consumer
// threads. The runtime's workers (runtime/mailbox.h) and the net event loops
// (net/event_loop.h) each own one: any thread pushes, one consumer thread
// swaps the whole pending vector out and works through it without the lock.
// Both vectors keep their capacity, so steady-state delivery allocates
// nothing, and appends happen in lock order, which keeps each producer's
// items in its program order (per-sender FIFO).
//
// The park rule, the only one in the process:
//  - A push wakes only on the edge: it found the pending vector empty and the
//    consumer parked. It writes the eventfd after it unlocks, so the woken
//    consumer does not block on the mutex.
//  - The consumer raises the parked flag under the lock, and only after it
//    found the vector empty, so a push cannot slip between its check and its
//    wait unseen. It lowers the flag when its wait returns, and it reads the
//    eventfd whenever the fd is readable.
//  - A write that lands after the consumer stopped waiting (its wait timed
//    out first) is read by its next park, whose wait returns at once: one
//    spurious turn, never a lost wake.
//  - The flag is lowered before the next swap, so at most one edge push wakes
//    each park: wakes <= parks.
// A consumer that ran dry first yield-spins on pending() (common/spin_wait.h)
// and parks only when that finds nothing, so a busy consumer takes no wakes.
//
// How the consumer waits is its own business: a worker waits in a timed
// ppoll on the eventfd (WaitFd), an event loop in epoll_wait on a set that
// holds the eventfd (fd(), ReadFd). Linux only, like the epoll tier.
#ifndef PARTDB_COMMON_INBOX_H_
#define PARTDB_COMMON_INBOX_H_

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"

namespace partdb {

template <typename T>
class Inbox {
 public:
  /// Monotonic counters.
  struct Stats {
    uint64_t pushed = 0;        // items
    uint64_t push_batches = 0;  // producer lock acquisitions
    uint64_t wakes = 0;         // edge writes of the eventfd
    uint64_t parks = 0;         // flag raises; bounds wakes from above
  };

  Inbox() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) { PARTDB_CHECK(fd_ >= 0); }
  ~Inbox() { ::close(fd_); }
  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;

  // --- producers (any thread) -----------------------------------------------

  /// Appends the `n` items `append` adds to the pending vector, under one
  /// lock acquisition, and wakes the consumer on the edge.
  template <typename Append>
  void Push(size_t n, Append&& append) {
    bool wake = false;
    {
      MutexLock lock(mu_);
      wake = pending_.empty() && parked_.load(std::memory_order_relaxed);
      append(pending_);
      pushed_.store(pushed_.load(std::memory_order_relaxed) + n, std::memory_order_release);
      push_batches_.store(push_batches_.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
    }
    if (wake) {
      Notify();
      wakes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void Push(T item) {
    Push(1, [&item](std::vector<T>& q) { q.push_back(std::move(item)); });
  }

  /// Writes the eventfd whatever the consumer is doing (it also ends a
  /// blocking wait on a set that holds the fd). Not counted as a wake.
  void Notify() {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t r = ::write(fd_, &one, sizeof(one));
  }

  // --- consumer (single thread) ---------------------------------------------

  /// True when an item was pushed since the last swap. No lock: the spin
  /// polls this.
  bool pending() const { return pushed_.load(std::memory_order_acquire) != swapped_; }

  /// Swaps the pending vector into `out`, which must be empty, and returns
  /// whether that brought any items.
  bool Swap(std::vector<T>& out) {
    {
      MutexLock lock(mu_);
      pending_.swap(out);
    }
    swapped_ += out.size();
    return !out.empty();
  }

  /// The park. Returns false at once when items are pending. Otherwise
  /// raises the flag, runs `wait()` (which blocks until the eventfd is
  /// readable, a deadline passes, or whatever else ends the consumer's wait),
  /// lowers the flag and returns true. The caller swaps afterwards; it may
  /// find nothing.
  template <typename Wait>
  bool Park(Wait&& wait) {
    {
      MutexLock lock(mu_);
      if (!pending_.empty()) return false;
      parked_.store(true, std::memory_order_release);
    }
    parks_.fetch_add(1, std::memory_order_relaxed);
    wait();
    // Without the lock: a producer that still reads the flag up writes an
    // eventfd the next park reads.
    parked_.store(false, std::memory_order_release);
    return true;
  }

  /// A worker's wait: a ppoll on the eventfd until it is readable or
  /// `deadline` passes (an EINTR ends it early), reading it if readable.
  void WaitFd(std::chrono::steady_clock::time_point deadline) {
    const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
        deadline - std::chrono::steady_clock::now());
    timespec ts{};
    if (left.count() > 0) {
      ts.tv_sec = static_cast<time_t>(left.count() / 1000000000);
      ts.tv_nsec = static_cast<long>(left.count() % 1000000000);
    }
    pollfd p{fd_, POLLIN, 0};
    if (::ppoll(&p, 1, &ts, nullptr) > 0) ReadFd();
  }

  /// Resets the eventfd; call whenever it polls readable.
  void ReadFd() {
    uint64_t count = 0;
    [[maybe_unused]] const ssize_t r = ::read(fd_, &count, sizeof(count));
  }

  int fd() const { return fd_; }

  // --- observables (any thread) ---------------------------------------------

  /// True while the consumer is parked.
  bool parked() const { return parked_.load(std::memory_order_acquire); }
  uint64_t pushed() const { return pushed_.load(std::memory_order_acquire); }

  Stats stats() const {
    Stats s;
    s.pushed = pushed_.load(std::memory_order_relaxed);
    s.push_batches = push_batches_.load(std::memory_order_relaxed);
    s.wakes = wakes_.load(std::memory_order_relaxed);
    s.parks = parks_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  alignas(64) Mutex mu_;
  std::vector<T> pending_ PARTDB_GUARDED_BY(mu_);
  std::atomic<uint64_t> pushed_{0};        // written under mu_
  std::atomic<uint64_t> push_batches_{0};  // written under mu_
  std::atomic<bool> parked_{false};        // raised under mu_
  std::atomic<uint64_t> wakes_{0};
  const int fd_;

  // Consumer-owned.
  alignas(64) uint64_t swapped_ = 0;  // items ever swapped out
  std::atomic<uint64_t> parks_{0};
};

}  // namespace partdb

#endif  // PARTDB_COMMON_INBOX_H_

#include "runtime/mailbox.h"

namespace partdb {

using std::chrono::steady_clock;

bool Mailbox::Refill(bool block, steady_clock::time_point deadline) {
  // Every node of the last batch was reset after its sink call; clear()
  // keeps the capacity for the next swap.
  draining_.clear();
  next_ = 0;
  // The batch is fully handed out, so an item pushed but not yet popped sits
  // in `pending_`: yield-spin on the counters, without the lock, before
  // parking.
  if (block) {
    SpinBeforePark(deadline, [this] {
      return pushed_.load(std::memory_order_acquire) != popped_.load(std::memory_order_relaxed);
    });
  }
  MutexLock lock(mu_);
  if (pending_.empty()) {
    if (!block || steady_clock::now() >= deadline) return false;
    waiting_.store(true, std::memory_order_release);
    parks_.fetch_add(1, std::memory_order_relaxed);
    // Park event for quiescence detection, after waiting_ is visible, so
    // the waiter's re-check observes a consistent (parked && empty)
    // snapshot.
    if (idle_signal_ != nullptr && idle_signal_->armed.load(std::memory_order_acquire)) {
      {
        MutexLock idle_lock(idle_signal_->mu);
      }
      idle_signal_->cv.NotifyAll();
    }
    while (pending_.empty()) {
      if (!cv_.WaitUntil(mu_, deadline) && pending_.empty()) break;
    }
    waiting_.store(false, std::memory_order_release);
    if (pending_.empty()) return false;
  }
  pending_.swap(draining_);
  return true;
}

}  // namespace partdb

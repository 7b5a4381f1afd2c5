#include "runtime/mailbox.h"

namespace partdb {

using std::chrono::steady_clock;

bool Mailbox::Refill(bool block, steady_clock::time_point deadline) {
  // Every node of the last batch was reset after its sink call; clear()
  // keeps the capacity for the next swap.
  draining_.clear();
  next_ = 0;
  // The batch is fully handed out, so an item pushed but not yet popped sits
  // in the inbox: yield-spin on its push counter, without the lock, before
  // parking.
  if (block) SpinBeforePark(deadline, [this] { return inbox_.pending(); });
  if (inbox_.Swap(draining_)) return true;
  if (!block || steady_clock::now() >= deadline) return false;
  inbox_.Park([this, deadline] {
    // Park event for quiescence detection, after the parked flag is
    // visible, so the waiter's re-check observes a consistent (parked &&
    // empty) snapshot.
    if (idle_signal_ != nullptr && idle_signal_->armed.load(std::memory_order_acquire)) {
      {
        MutexLock idle_lock(idle_signal_->mu);
      }
      idle_signal_->cv.NotifyAll();
    }
    inbox_.WaitFd(deadline);
  });
  return inbox_.Swap(draining_);
}

}  // namespace partdb

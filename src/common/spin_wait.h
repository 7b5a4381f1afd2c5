// The spin half of the process's one wake discipline: a consumer thread that
// runs dry yield-spins for a short fixed time before it parks. The mailbox
// consumers (partition and session workers, runtime/mailbox.h) and the net
// event loops (net/event_loop.h) both call SpinBeforePark with their Inbox's
// pending() as the test, and each parks on that Inbox (common/inbox.h, the
// park half) only when it returns false, so a producer whose item lands
// inside the spin pays no wake syscall and the consumer takes no wake.
#ifndef PARTDB_COMMON_SPIN_WAIT_H_
#define PARTDB_COMMON_SPIN_WAIT_H_

#include <algorithm>
#include <chrono>
#include <thread>

namespace partdb {

/// How long a consumer that ran dry yield-spins before it parks. Long enough
/// to cover a round trip to another thread (a message between two workers,
/// a request and its response over loopback), so a ping-pong takes no
/// wakes; short enough that an idle thread soon parks and frees its CPU.
inline constexpr std::chrono::microseconds kSpinBeforePark{50};

/// Returns true as soon as `ready()` does. Otherwise calls it once per
/// sched_yield until kSpinBeforePark has passed, or `deadline` if that is
/// sooner, and returns false: the caller should park. The first call costs
/// no clock read, so a busy consumer pays one `ready()`. Each turn yields, so
/// on an oversubscribed CPU the spinner hands its slice to a runnable thread,
/// often the one it waits for.
template <typename Ready>
bool SpinBeforePark(std::chrono::steady_clock::time_point deadline, Ready&& ready) {
  if (ready()) return true;
  const std::chrono::steady_clock::time_point spin_end =
      std::min(deadline, std::chrono::steady_clock::now() + kSpinBeforePark);
  while (std::chrono::steady_clock::now() < spin_end) {
    std::this_thread::yield();
    if (ready()) return true;
  }
  return false;
}

}  // namespace partdb

#endif  // PARTDB_COMMON_SPIN_WAIT_H_

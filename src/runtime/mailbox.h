// Unbounded MPSC mailbox for the parallel runtime. Any thread may push;
// exactly one consumer thread drains. Producers append to `pending_` under
// one mutex; the consumer swaps the whole pending vector into its private
// `draining_` vector under the same mutex and runs that batch without it.
// Both vectors keep their capacity, so steady-state delivery allocates
// nothing. Appends happen in lock order, a total order consistent with each
// producer's program order, so per-sender FIFO — the delivery guarantee the
// simulated network provides and the CC schemes rely on — is preserved.
//
// A handler may push to its own mailbox mid-drain (SetTimer, self-sends):
// that push lands in `pending_`, never in the vector being drained, so the
// node handed to the sink stays put.
//
// The consumer parks on the condvar only after finding `pending_` empty
// under the lock, and a producer notifies only when its push makes
// `pending_` non-empty while the consumer is parked: a busy worker takes no
// wakes.
//
// A node carries a tagged union — message | timer | control — so the two
// hot item kinds (actor messages and timer registrations) cost no
// type-erased std::function; closures remain for the cold control plane
// (RunOn rendezvous, stop wakes, metric window flips).
#ifndef PARTDB_RUNTIME_MAILBOX_H_
#define PARTDB_RUNTIME_MAILBOX_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <new>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "msg/message.h"

namespace partdb {

/// Timer registration riding the mailbox as plain data (SetTimer is on the
/// session-wake hot path; it must not allocate or type-erase).
struct MailboxTimer {
  NodeId self = kInvalidNode;
  Time at = 0;
  TimerFire fire;
};

/// One queued item. The union members are manually constructed/destroyed,
/// tracked by `kind`.
struct MailboxNode {
  enum class Kind : uint8_t { kNone, kMessage, kTimer, kControl };
  using ControlFn = std::function<void()>;

  Kind kind = Kind::kNone;
  union {
    Message msg;
    MailboxTimer timer;
    ControlFn control;
  };

  MailboxNode() {}  // NOLINT(modernize-use-equals-default): no active member
  ~MailboxNode() { Reset(); }
  MailboxNode(const MailboxNode&) = delete;
  MailboxNode& operator=(const MailboxNode&) = delete;
  /// Moves the active member out of `o` (vector growth); `o` ends empty.
  MailboxNode(MailboxNode&& o) noexcept {
    switch (o.kind) {
      case Kind::kMessage:
        SetMessage(std::move(o.msg));
        break;
      case Kind::kTimer:
        SetTimer(o.timer);
        break;
      case Kind::kControl:
        SetControl(std::move(o.control));
        break;
      case Kind::kNone:
        break;
    }
    o.Reset();
  }

  void SetMessage(Message m) {
    new (&msg) Message(std::move(m));
    kind = Kind::kMessage;
  }
  void SetTimer(MailboxTimer t) {
    new (&timer) MailboxTimer(t);
    kind = Kind::kTimer;
  }
  void SetControl(ControlFn fn) {
    new (&control) ControlFn(std::move(fn));
    kind = Kind::kControl;
  }

  /// Destroys the active union member (dropping any payload references it
  /// held). Runs on the consumer for drained nodes.
  void Reset() {
    switch (kind) {
      case Kind::kMessage:
        msg.~Message();
        break;
      case Kind::kTimer:
        timer.~MailboxTimer();
        break;
      case Kind::kControl:
        control.~ControlFn();
        break;
      case Kind::kNone:
        break;
    }
    kind = Kind::kNone;
  }
};

/// Shared park-event channel: every consumer park (mailbox verified empty,
/// consumer about to block) notifies here when armed, so WaitQuiescent can
/// sleep on quiescence-relevant events instead of polling. Armed only while
/// someone is waiting — steady-state parks skip the lock entirely.
struct MailboxIdleSignal {
  std::atomic<bool> armed{false};
  Mutex mu;
  CondVar cv;
};

class Mailbox {
 public:
  /// Monotonic counters.
  struct Stats {
    uint64_t pushed = 0;
    uint64_t popped = 0;
    uint64_t wakes = 0;  // condvar notifies: empty->nonempty edges that
                         // found the consumer parked
    uint64_t parks = 0;  // times the consumer parked; bounds wakes from above
  };

  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  // --- producers (any thread) -----------------------------------------------

  void PushMessage(Message m) {
    Push([&m](MailboxNode& n) { n.SetMessage(std::move(m)); });
  }
  void PushTimer(NodeId self, Time at, TimerFire t) {
    Push([&](MailboxNode& n) { n.SetTimer(MailboxTimer{self, at, t}); });
  }
  /// Cold control plane only (rendezvous, stop, window flips): the closure
  /// itself may allocate.
  void PushControl(MailboxNode::ControlFn fn) {
    Push([&fn](MailboxNode& n) { n.SetControl(std::move(fn)); });
  }

  // --- consumer (single thread) ---------------------------------------------

  /// Blocks until at least one item is available or `deadline` passes, then
  /// drains up to `max_batch` items in FIFO order, invoking `sink(node)` on
  /// each. The node (and its payload) is valid only for the duration of the
  /// sink call; the payload should be moved out. The sink may push to this
  /// mailbox. Returns the number of items drained (0 on timeout).
  template <typename Sink>
  size_t DrainUntil(std::chrono::steady_clock::time_point deadline, size_t max_batch,
                    Sink&& sink) {
    size_t drained = 0;
    while (drained < max_batch) {
      if (next_ == draining_.size() && !Refill(drained == 0, deadline)) break;
      MailboxNode& n = draining_[next_++];
      popped_.store(popped_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
      sink(&n);
      n.Reset();
      ++drained;
    }
    return drained;
  }

  // --- observables (any thread; WaitQuiescent reads these) ------------------

  /// True while the consumer is parked (it found `pending_` empty under the
  /// lock before raising the flag, and lowers it before draining anything).
  bool consumer_waiting() const { return waiting_.load(std::memory_order_acquire); }

  /// Total items ever pushed / popped. An item counts as popped when its
  /// sink call starts.
  uint64_t pushed() const { return pushed_.load(std::memory_order_acquire); }
  uint64_t popped() const { return popped_.load(std::memory_order_acquire); }

  /// True when every item pushed so far has been handed to the sink.
  bool Empty() const { return popped() == pushed(); }

  Stats stats() const {
    Stats s;
    s.pushed = pushed_.load(std::memory_order_relaxed);
    s.popped = popped_.load(std::memory_order_relaxed);
    s.wakes = wakes_.load(std::memory_order_relaxed);
    s.parks = parks_.load(std::memory_order_relaxed);
    return s;
  }

  /// Optional park-event sink (set before traffic; the runtime shares one
  /// across its mailboxes for event-driven WaitQuiescent).
  void set_idle_signal(MailboxIdleSignal* s) { idle_signal_ = s; }

 private:
  /// Appends one item filled in by `set`, then wakes a parked consumer if
  /// this push made `pending_` non-empty. The notify happens after the
  /// unlock, so the woken consumer does not block on the mutex; it cannot be
  /// lost, because the consumer checks `pending_` under the lock before it
  /// waits.
  template <typename Set>
  void Push(Set&& set) {
    bool wake = false;
    {
      MutexLock lock(mu_);
      set(pending_.emplace_back());
      pushed_.store(pushed_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
      wake = pending_.size() == 1 && waiting_.load(std::memory_order_relaxed);
    }
    if (wake) {
      cv_.NotifyOne();
      wakes_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Recycles the drained batch and swaps `pending_` in. When nothing is
  /// pending, parks until `deadline` if `block`, else returns false.
  bool Refill(bool block, std::chrono::steady_clock::time_point deadline);

  alignas(64) Mutex mu_;
  std::vector<MailboxNode> pending_ PARTDB_GUARDED_BY(mu_);
  std::atomic<uint64_t> pushed_{0};   // written under mu_
  std::atomic<bool> waiting_{false};  // written under mu_
  std::atomic<uint64_t> wakes_{0};
  CondVar cv_;
  MailboxIdleSignal* idle_signal_ = nullptr;

  // Consumer-owned: the batch being drained and its cursor.
  alignas(64) std::vector<MailboxNode> draining_;
  size_t next_ = 0;
  std::atomic<uint64_t> popped_{0};
  std::atomic<uint64_t> parks_{0};
};

}  // namespace partdb

#endif  // PARTDB_RUNTIME_MAILBOX_H_

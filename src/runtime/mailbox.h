// Lock-free unbounded MPSC mailbox for the parallel runtime. Any thread may
// push; exactly one consumer thread drains. The queue is a Vyukov-style
// intrusive node list: producers link in with a single atomic exchange
// (wait-free — no CAS loop, no mutex, no allocation on the hot path thanks
// to per-producer thread-local node freelists), and the consumer walks the
// chain with plain loads. The exchange order is a total order consistent
// with each producer's program order, so per-sender FIFO — the delivery
// guarantee the simulated network provides and the CC schemes rely on — is
// preserved.
//
// Blocking is kept entirely off the fast path: the consumer parks on a
// CondVar only after publishing a `parked` flag and re-verifying emptiness
// (Dekker-style with the producers' tail exchange, both seq_cst), and a
// producer signals only on the empty->nonempty edge when that flag is up.
// Steady-state traffic never touches the mutex from either side; it exists
// solely so the park/wake handshake can reuse the annotated CondVar instead
// of a raw futex.
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
#include <thread>
#include <utility>

#include "common/mutex.h"
#include "msg/message.h"

namespace partdb {

namespace mailbox_internal {
class NodeCache;
}  // namespace mailbox_internal

/// Timer registration riding the mailbox as plain data (SetTimer is on the
/// session-wake hot path; it must not allocate or type-erase).
struct MailboxTimer {
  NodeId self = kInvalidNode;
  Time at = 0;
  TimerFire fire;
};

/// One intrusive queue node. Recycled through per-producer thread-local
/// freelists (`home`); never constructed on the push hot path in steady
/// state. The union members are manually constructed/destroyed, tracked by
/// `kind`.
struct MailboxNode {
  enum class Kind : uint8_t { kNone, kMessage, kTimer, kControl };
  using ControlFn = std::function<void()>;

  std::atomic<MailboxNode*> next{nullptr};
  mailbox_internal::NodeCache* home = nullptr;  // owning freelist; null = stub
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

/// Process-wide node-freelist counters (Database::Stats). The caches are
/// per-thread and shared by every Mailbox in the process.
struct MailboxNodeCacheStats {
  uint64_t hits = 0;         // nodes reused from a freelist
  uint64_t misses = 0;       // nodes freshly heap-allocated
  uint64_t cas_retries = 0;  // contended pushes onto freelist return stacks
  uint64_t live_caches = 0;  // producer threads with a live cache
};

/// Acquires a recycled node from the calling thread's cache (allocating only
/// on a cold cache), releases one back to its home cache from any thread,
/// and aggregates the process-wide counters.
MailboxNode* AcquireMailboxNode();
void ReleaseMailboxNode(MailboxNode* n);
MailboxNodeCacheStats MailboxNodeCaches();

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
  /// Monotonic counters, all updated wait-free on their owning side.
  struct Stats {
    uint64_t pushed = 0;
    uint64_t popped = 0;
    uint64_t wakes = 0;        // condvar notifies: empty->nonempty edges that
                               // found the consumer parked
    uint64_t parks = 0;        // times the consumer raised its parked flag
                               // (park epoch), including ones a racing push
                               // cut short; bounds wakes from above
    uint64_t pop_retries = 0;  // consumer retries on a producer's in-flight
                               // link (the lock-free analogue of contention)
  };

  Mailbox();
  ~Mailbox();
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  // --- producers (any thread, wait-free: one exchange each) -----------------

  void PushMessage(Message m) {
    MailboxNode* n = AcquireMailboxNode();
    n->SetMessage(std::move(m));
    PushNode(n);
  }
  void PushTimer(NodeId self, Time at, TimerFire t) {
    MailboxNode* n = AcquireMailboxNode();
    n->SetTimer(MailboxTimer{self, at, t});
    PushNode(n);
  }
  /// Cold control plane only (rendezvous, stop, window flips): the closure
  /// itself may allocate.
  void PushControl(MailboxNode::ControlFn fn) {
    MailboxNode* n = AcquireMailboxNode();
    n->SetControl(std::move(fn));
    PushNode(n);
  }

  // --- consumer (single thread) ---------------------------------------------

  /// Blocks until at least one item is available or `deadline` passes, then
  /// drains up to `max_batch` items in FIFO order, invoking `sink(node)` on
  /// each. The node (and its payload) is valid only for the duration of the
  /// sink call; the payload should be moved out. Returns the number of items
  /// drained (0 on timeout).
  template <typename Sink>
  size_t DrainUntil(std::chrono::steady_clock::time_point deadline, size_t max_batch,
                    Sink&& sink) {
    size_t drained = 0;
    while (drained < max_batch) {
      MailboxNode* n = TryPop();
      if (n == nullptr) {
        if (drained > 0) break;  // batch in hand; hand it back
        if (!Empty()) {
          // A producer is between its tail exchange and the link store — the
          // item exists but is not reachable yet. Spin briefly; yielding
          // lets the producer finish when cores are scarce.
          pop_retries_.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
          continue;
        }
        if (!WaitNonEmptyUntil(deadline)) return 0;
        continue;
      }
      popped_.fetch_add(1, std::memory_order_relaxed);
      sink(n);
      n->Reset();
      ReleaseMailboxNode(n);
      ++drained;
    }
    return drained;
  }

  // --- observables (any thread; WaitQuiescent reads these) ------------------

  /// True while the consumer is parked (it verified emptiness before
  /// raising the flag, and lowers it before popping anything).
  bool consumer_waiting() const { return parked_.load(std::memory_order_acquire); }

  /// Total items ever pushed / popped. `pushed` is bumped before the node
  /// becomes reachable, so pushed() >= items visible in the queue — the
  /// conservative direction for quiescence detection.
  uint64_t pushed() const { return pushed_.load(std::memory_order_acquire); }
  uint64_t popped() const { return popped_.load(std::memory_order_acquire); }

  /// True when no unconsumed item exists at the instant of the call (modulo
  /// producers that bumped pushed() but have not yet exchanged — the
  /// pushed-stability check in WaitQuiescent covers those).
  bool Empty() const {
    return head_.load(std::memory_order_acquire) == &stub_ &&
           stub_.next.load(std::memory_order_acquire) == nullptr &&
           tail_.load(std::memory_order_seq_cst) == &stub_;
  }

  Stats stats() const {
    Stats s;
    s.pushed = pushed_.load(std::memory_order_relaxed);
    s.popped = popped_.load(std::memory_order_relaxed);
    s.wakes = wakes_.load(std::memory_order_relaxed);
    s.parks = parks_.load(std::memory_order_relaxed);
    s.pop_retries = pop_retries_.load(std::memory_order_relaxed);
    return s;
  }

  /// Optional park-event sink (set before traffic; the runtime shares one
  /// across its mailboxes for event-driven WaitQuiescent).
  void set_idle_signal(MailboxIdleSignal* s) { idle_signal_ = s; }

 private:
  void PushNode(MailboxNode* n);
  MailboxNode* TryPop();
  bool WaitNonEmptyUntil(std::chrono::steady_clock::time_point deadline);

  // Producer-shared cache lines: the exchange target and the push counter.
  alignas(64) std::atomic<MailboxNode*> tail_;  // producer end of the chain
  std::atomic<uint64_t> pushed_{0};

  // Consumer-owned line: the private cursor (atomic only so observers can
  // read it) and the consumer-side counters.
  alignas(64) std::atomic<MailboxNode*> head_;
  std::atomic<uint64_t> popped_{0};
  std::atomic<uint64_t> parks_{0};
  std::atomic<uint64_t> pop_retries_{0};

  // Park/wake handshake. parked_ is the Dekker flag; the mutex+condvar are
  // touched only on the empty->nonempty edge (see WaitNonEmptyUntil).
  alignas(64) std::atomic<bool> parked_{false};
  std::atomic<uint64_t> wakes_{0};
  Mutex park_mu_;
  CondVar park_cv_;
  MailboxIdleSignal* idle_signal_ = nullptr;

  /// Permanent sentinel: tail_ == &stub_ <=> the chain is logically empty
  /// (the consumer re-pushes it whenever it detaches the last real node).
  MailboxNode stub_;
};

}  // namespace partdb

#endif  // PARTDB_RUNTIME_MAILBOX_H_

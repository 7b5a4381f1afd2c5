// Unbounded MPSC mailbox for the parallel runtime. Any thread may push;
// exactly one consumer thread drains. The queue and its park rule are
// common/inbox.h's, the same Inbox the net event loops hold: producers
// append under one mutex, the consumer swaps the whole pending vector into
// its private `draining_` vector and runs that batch without the lock, and
// per-sender FIFO — the delivery guarantee the simulated network provides
// and the CC schemes rely on — holds because appends happen in lock order.
//
// Producers may push one item (PushMessage, PushControl) or a run of
// messages (PushMessages: one lock, a bulk append in order, at most one
// wake). The parallel runtime's workers use the bulk push: a handler's sends
// wait in its worker's outbox and leave together, one push per destination
// mailbox, when the drained batch is fully handed out (DrainUntil's
// `batch_done` hook runs then, before the consumer can spin or park). A sink
// may still push to its own mailbox mid-drain; that push lands in the
// inbox's pending vector, never in the vector being drained, so the node
// handed to the sink stays put.
//
// A consumer that finds nothing to drain first yield-spins for up to
// `kSpinBeforePark`, never past the drain deadline, then parks in a timed
// ppoll on the inbox's eventfd that ends at that deadline (inbox.h has the
// park rule). A busy worker takes no wakes, and neither does a message round
// trip between workers that closes inside the spin; an idle worker still
// parks and frees its CPU. Each yield pushes the spinner's scheduler deadline
// out, so on a shared CPU a thread woken while the worker then runs may
// preempt it; the net EventLoop runs under SCHED_BATCH for that reason.
//
// A node carries a tagged union — message | control — so the hot item kind
// (actor messages, session submissions among them) costs no type-erased
// std::function; closures remain for the cold control plane (RunOn
// rendezvous, stop wakes, metric window flips). Timers never ride the
// mailbox: a handler arms them straight into its own worker's heap.
#ifndef PARTDB_RUNTIME_MAILBOX_H_
#define PARTDB_RUNTIME_MAILBOX_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <new>
#include <utility>
#include <vector>

#include "common/inbox.h"
#include "common/mutex.h"
#include "common/spin_wait.h"
#include "msg/message.h"

namespace partdb {

/// One queued item. The union members are manually constructed/destroyed,
/// tracked by `kind`.
struct MailboxNode {
  enum class Kind : uint8_t { kNone, kMessage, kControl };
  using ControlFn = std::function<void()>;

  Kind kind = Kind::kNone;
  union {
    Message msg;
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
    uint64_t push_batches = 0;  // producer lock acquisitions; pushed /
                                // push_batches is messages per lock
    uint64_t wakes = 0;  // eventfd writes: empty->nonempty edges that found
                         // the consumer parked
    uint64_t parks = 0;  // times the consumer parked; bounds wakes from above
  };

  /// How long a consumer that found its mailbox empty yield-spins before it
  /// parks: the process-wide spin (common/spin_wait.h), which the net event
  /// loops use too.
  static constexpr std::chrono::microseconds kSpinBeforePark = partdb::kSpinBeforePark;

  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  // --- producers (any thread) -----------------------------------------------

  void PushMessage(Message m) {
    inbox_.Push(1, [&m](std::vector<MailboxNode>& q) {
      q.emplace_back().SetMessage(std::move(m));
    });
  }
  /// Appends every message of `msgs`, in order, under one lock acquisition
  /// and with at most one wake. `msgs` comes back empty with its capacity
  /// kept.
  void PushMessages(std::vector<Message>& msgs) {
    if (msgs.empty()) return;
    inbox_.Push(msgs.size(), [&msgs](std::vector<MailboxNode>& q) {
      for (Message& m : msgs) q.emplace_back().SetMessage(std::move(m));
    });
    msgs.clear();
  }
  /// Cold control plane only (rendezvous, stop, window flips): the closure
  /// itself may allocate.
  void PushControl(MailboxNode::ControlFn fn) {
    inbox_.Push(1, [&fn](std::vector<MailboxNode>& q) {
      q.emplace_back().SetControl(std::move(fn));
    });
  }

  // --- consumer (single thread) ---------------------------------------------

  /// Blocks until at least one item is available or `deadline` passes, then
  /// drains up to `max_batch` items in FIFO order, invoking `sink(node)` on
  /// each. The node (and its payload) is valid only for the duration of the
  /// sink call; the payload should be moved out. The sink may push to this
  /// mailbox. Each time a batch swapped in from the inbox has been fully
  /// handed out, `batch_done()` runs before the next swap, and so before
  /// the consumer can spin or park. Returns the number of items drained: 0
  /// on timeout, and now and then before it, when a wake meant for an
  /// earlier park ends this one (common/inbox.h).
  template <typename Sink, typename BatchDone>
  size_t DrainUntil(std::chrono::steady_clock::time_point deadline, size_t max_batch,
                    Sink&& sink, BatchDone&& batch_done) {
    size_t drained = 0;
    while (drained < max_batch) {
      if (next_ == draining_.size()) {
        if (next_ != 0) batch_done();
        if (!Refill(drained == 0, deadline)) break;
      }
      MailboxNode& n = draining_[next_++];
      popped_.store(popped_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
      sink(&n);
      n.Reset();
      ++drained;
    }
    return drained;
  }
  template <typename Sink>
  size_t DrainUntil(std::chrono::steady_clock::time_point deadline, size_t max_batch,
                    Sink&& sink) {
    return DrainUntil(deadline, max_batch, std::forward<Sink>(sink), [] {});
  }

  // --- observables (any thread; WaitQuiescent reads these) ------------------

  /// True while the consumer is parked (it found the inbox empty under the
  /// lock before raising the flag, and lowers it before draining anything).
  bool consumer_waiting() const { return inbox_.parked(); }

  /// Total items ever pushed / popped. An item counts as popped when its
  /// sink call starts.
  uint64_t pushed() const { return inbox_.pushed(); }
  uint64_t popped() const { return popped_.load(std::memory_order_acquire); }

  /// True when every item pushed so far has been handed to the sink.
  bool Empty() const { return popped() == pushed(); }

  Stats stats() const {
    const Inbox<MailboxNode>::Stats in = inbox_.stats();
    Stats s;
    s.pushed = in.pushed;
    s.popped = popped_.load(std::memory_order_relaxed);
    s.push_batches = in.push_batches;
    s.wakes = in.wakes;
    s.parks = in.parks;
    return s;
  }

  /// Optional park-event sink (set before traffic; the runtime shares one
  /// across its mailboxes for event-driven WaitQuiescent).
  void set_idle_signal(MailboxIdleSignal* s) { idle_signal_ = s; }

 private:
  /// Recycles the drained batch and swaps the inbox in. When nothing is
  /// pending, returns false unless `block`; if it does block, it
  /// yield-spins, then parks once, until an item arrives or `deadline`
  /// passes.
  bool Refill(bool block, std::chrono::steady_clock::time_point deadline);

  Inbox<MailboxNode> inbox_;
  MailboxIdleSignal* idle_signal_ = nullptr;

  // Consumer-owned: the batch being drained and its cursor.
  alignas(64) std::vector<MailboxNode> draining_;
  size_t next_ = 0;
  std::atomic<uint64_t> popped_{0};
};

}  // namespace partdb

#endif  // PARTDB_RUNTIME_MAILBOX_H_

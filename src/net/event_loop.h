// EventLoop: the epoll reactor at the heart of the async network tier. One
// loop thread multiplexes any number of nonblocking TCP connections
// (level-triggered poll), decodes length-prefixed frames in place from a
// per-connection receive buffer, and flushes responses as coalesced batches
// — one writev-style syscall per ready set, not one per frame. Producers on
// other threads (session-worker completion callbacks, client submitters)
// never touch the socket: SendFrame encodes straight into the connection's
// reusable outbox buffer and wakes the owning loop via an eventfd; wakes
// coalesce, so a burst of frames costs one wakeup and one flush syscall.
//
// Every request from another thread — add a connection, flush one, stop —
// is one item in the loop's single inbox (one mutex, one vector the loop
// swaps out once per iteration), so requests run in push order: frames sent
// before Stop() are flushed before the teardown closes their connection.
// The connection table belongs to the loop thread alone.
//
// Thread contract:
//  - on_frame / on_close run on the loop thread, exclusively and in order
//    per connection. They must not block; they may SendFrame freely (frames
//    produced while handling a ready set join the same flush batch).
//  - SendFrame is thread-safe and non-blocking from any thread.
//  - Stop() drains and closes every connection (on_close runs for each),
//    then joins the loop thread. The owner must keep the EventLoop alive
//    until every thread that might still call SendFrame has quiesced (sends
//    on a closed conn are dropped, but they touch the loop's wakeup fd).
#ifndef PARTDB_NET_EVENT_LOOP_H_
#define PARTDB_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "msg/wire.h"
#include "net/frame.h"
#include "net/socket.h"

namespace partdb {

class EventLoop;
class LoopConn;
using LoopConnPtr = std::shared_ptr<LoopConn>;

/// Monotonic counters of one EventLoop (internally atomic; EventLoop::stats
/// returns a plain snapshot).
struct EventLoopStats {
  uint64_t frames_in = 0;       // frames decoded from peers
  uint64_t frames_out = 0;      // frames queued for sending
  uint64_t bytes_in = 0;        // payload bytes received
  uint64_t bytes_out = 0;       // payload bytes sent
  uint64_t flush_batches = 0;   // flush syscalls (each may carry many frames)
  uint64_t wakeups = 0;         // eventfd wakes (coalesced producer signals)

  EventLoopStats& operator+=(const EventLoopStats& o) {
    frames_in += o.frames_in;
    frames_out += o.frames_out;
    bytes_in += o.bytes_in;
    bytes_out += o.bytes_out;
    flush_batches += o.flush_batches;
    wakeups += o.wakeups;
    return *this;
  }
};

/// Per-connection callbacks, both invoked on the loop thread only.
struct LoopConnHandlers {
  /// One decoded frame; the body view dies with the call. Return false to
  /// close the connection (protocol violation).
  std::function<bool(LoopConn&, const FrameView&)> on_frame;
  /// The connection left the loop (peer EOF, I/O error, handler-requested or
  /// Stop). Runs exactly once; the LoopConn outlives the call via shared
  /// ownership, but no further frames flow in either direction.
  std::function<void(LoopConn&)> on_close;
};

/// One multiplexed connection. Created via EventLoop::AddConn; destroyed
/// when the last shared reference drops (the loop holds one until close,
/// producers hold others from inside completion callbacks).
class LoopConn : public std::enable_shared_from_this<LoopConn> {
 public:
  /// Encodes one frame directly into the connection's outbox buffer and
  /// schedules a coalesced flush. `body` receives a WireWriter appending to
  /// that buffer. Thread-safe, non-blocking. Returns false (dropping the
  /// frame) when the connection is already closed.
  template <typename BodyFn>
  bool SendFrame(FrameType type, BodyFn&& body) {
    bool queue_flush = false;
    {
      MutexLock lock(out_mu_);
      if (closed_) return false;
      const size_t at = BeginFrame(&outbox_, type);
      WireWriter w(&outbox_);
      body(w);
      EndFrame(&outbox_, at);
      queue_flush = !flush_queued_;
      flush_queued_ = true;
    }
    CountFrameOut();
    if (queue_flush) QueueFlush();
    return true;
  }

 private:
  friend class EventLoop;
  LoopConn(EventLoop* loop, TcpConn sock) : loop_(loop), sock_(std::move(sock)) {}

  void QueueFlush();
  void CountFrameOut();

  EventLoop* loop_;
  TcpConn sock_;
  LoopConnHandlers handlers_;

  // --- producer side (any thread) --------------------------------------------
  Mutex out_mu_;
  /// Frames appended since the last flush swap.
  std::string outbox_ PARTDB_GUARDED_BY(out_mu_);
  /// A kFlush item for this connection is already in the loop's inbox.
  bool flush_queued_ PARTDB_GUARDED_BY(out_mu_) = false;
  bool closed_ PARTDB_GUARDED_BY(out_mu_) = false;

  // --- loop-thread-owned state ------------------------------------------------
  std::string rbuf_;      // receive buffer; frames decode in place
  size_t rhead_ = 0;      // first unparsed byte
  size_t rtail_ = 0;      // end of valid bytes
  std::string scratch_;   // outbox swap target (capacity reused across flushes)
  std::string unsent_;    // bytes a short write left behind
  size_t unsent_off_ = 0;
  bool want_write_ = false;  // EPOLLOUT armed
  bool in_loop_ = false;     // registered with epoll
};

class EventLoop {
 public:
  /// Starts the loop thread immediately. `pin_cpu` >= 0 pins the loop thread
  /// to that CPU (advisory — a refused pin is reported via pinned()).
  explicit EventLoop(std::string name = "event-loop", int pin_cpu = -1);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Hands a connected socket to the loop (made nonblocking here). Frames
  /// may be sent on the returned conn immediately. Thread-safe.
  LoopConnPtr AddConn(TcpConn sock, LoopConnHandlers handlers);

  /// Closes every connection (each on_close runs on the loop thread) and
  /// joins the thread. Idempotent; the destructor calls it.
  void Stop();

  EventLoopStats stats() const;

  /// True once the loop thread successfully pinned itself to `pin_cpu`.
  bool pinned() const { return pinned_.load(std::memory_order_relaxed); }

 private:
  friend class LoopConn;

  /// One request for the loop thread.
  struct Item {
    enum class Kind : uint8_t { kAdd, kFlush, kStop };
    Kind kind;
    LoopConnPtr conn;  // null for kStop
  };

  void Run();
  void Wake();
  void HandleReadable(LoopConn* c);
  void HandleWritable(LoopConn* c);
  void FlushConn(LoopConn* c);
  void UpdateEpollOut(LoopConn* c, bool want);
  void CloseNow(LoopConn* c);
  /// Appends to the inbox and wakes the loop unless the loop thread itself
  /// pushed before its next inbox swap.
  void Push(Item item);
  bool DrainInbox();  // false once a kStop item was seen

  std::string name_;
  int pin_cpu_ = -1;
  std::atomic<bool> pinned_{false};
  int epfd_ = -1;
  int wakefd_ = -1;
  std::atomic<bool> wake_armed_{false};

  Mutex inbox_mu_;
  std::vector<Item> inbox_ PARTDB_GUARDED_BY(inbox_mu_);
  /// Makes Stop idempotent.
  bool stop_queued_ PARTDB_GUARDED_BY(inbox_mu_) = false;

  // --- loop-thread-owned state ------------------------------------------------
  std::vector<Item> draining_;  // the swapped-out inbox (capacity reused)
  bool in_drain_ = false;       // DrainInbox is running its batch
  std::unordered_map<LoopConn*, LoopConnPtr> conns_;

  struct StatCells {
    std::atomic<uint64_t> frames_in{0}, frames_out{0};
    std::atomic<uint64_t> bytes_in{0}, bytes_out{0};
    std::atomic<uint64_t> flush_batches{0}, wakeups{0};
  };
  StatCells stats_;

  std::thread thread_;
};

}  // namespace partdb

#endif  // PARTDB_NET_EVENT_LOOP_H_

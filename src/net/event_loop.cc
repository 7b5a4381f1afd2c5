#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/affinity.h"
#include "common/logging.h"

namespace partdb {

namespace {

/// Bytes of free space guaranteed before each recv: big enough that a ready
/// set's worth of pipelined request frames lands in one syscall.
constexpr size_t kReadChunk = 64 * 1024;

/// Compact the receive buffer once this many consumed bytes pile up in
/// front; below that, the memmove would cost more than the space is worth.
constexpr size_t kCompactThreshold = 256 * 1024;

constexpr int kMaxEvents = 128;

/// The loop whose Run() occupies this thread (null off the loop threads).
thread_local const EventLoop* t_running_loop = nullptr;

}  // namespace

// --- LoopConn ----------------------------------------------------------------

void LoopConn::QueueFlush() {
  loop_->Push({EventLoop::Item::Kind::kFlush, shared_from_this()});
}

void LoopConn::CountFrameOut() {
  loop_->stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
}

// --- EventLoop ---------------------------------------------------------------

EventLoop::EventLoop(std::string name, int pin_cpu) : name_(std::move(name)), pin_cpu_(pin_cpu) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  PARTDB_CHECK(epfd_ >= 0);
  wakefd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  PARTDB_CHECK(wakefd_ >= 0);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr marks the wakeup fd
  PARTDB_CHECK(::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakefd_, &ev) == 0);
  thread_ = std::thread([this] { Run(); });
}

EventLoop::~EventLoop() {
  Stop();
  // The fds outlive the join: a straggling SendFrame on an already-closed
  // conn may still write the eventfd harmlessly until the owner destroys us.
  if (epfd_ >= 0) ::close(epfd_);
  if (wakefd_ >= 0) ::close(wakefd_);
}

LoopConnPtr EventLoop::AddConn(TcpConn sock, LoopConnHandlers handlers) {
  PARTDB_CHECK(sock.valid());
  sock.SetNonBlocking(true);
  LoopConnPtr conn(new LoopConn(this, std::move(sock)));
  conn->handlers_ = std::move(handlers);
  Push({Item::Kind::kAdd, conn});
  return conn;
}

void EventLoop::Stop() {
  {
    MutexLock lock(inbox_mu_);
    if (stop_queued_) return;
    stop_queued_ = true;
    inbox_.push_back({Item::Kind::kStop, nullptr});
  }
  Wake();
  if (thread_.joinable()) thread_.join();
}

EventLoopStats EventLoop::stats() const {
  EventLoopStats s;
  s.frames_in = stats_.frames_in.load(std::memory_order_relaxed);
  s.frames_out = stats_.frames_out.load(std::memory_order_relaxed);
  s.bytes_in = stats_.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = stats_.bytes_out.load(std::memory_order_relaxed);
  s.flush_batches = stats_.flush_batches.load(std::memory_order_relaxed);
  s.wakeups = stats_.wakeups.load(std::memory_order_relaxed);
  return s;
}

void EventLoop::Wake() {
  if (wake_armed_.exchange(true)) return;  // a wake is already in flight
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t r = ::write(wakefd_, &one, sizeof(one));
}

void EventLoop::Push(Item item) {
  {
    MutexLock lock(inbox_mu_);
    inbox_.push_back(std::move(item));
  }
  // The loop swaps its inbox at the end of every iteration, so a push the
  // loop thread makes before that swap needs no eventfd. One made while the
  // swapped batch runs (an on_close sending elsewhere) lands after the swap
  // and needs the wake, as does every push from another thread.
  if (t_running_loop != this || in_drain_) Wake();
}

void EventLoop::Run() {
  // Advisory pin (same policy as the partition workers): a refused pin is
  // reported through pinned(), never an error.
  if (pin_cpu_ >= 0 && PinCurrentThreadToCpu(pin_cpu_)) {
    pinned_.store(true, std::memory_order_relaxed);
  }
  t_running_loop = this;
  epoll_event events[kMaxEvents];
  while (true) {
    const int n = ::epoll_wait(epfd_, events, kMaxEvents, -1);
    if (n < 0) {
      PARTDB_CHECK(errno == EINTR);
      continue;
    }
    for (int i = 0; i < n; ++i) {
      LoopConn* c = static_cast<LoopConn*>(events[i].data.ptr);
      if (c == nullptr) {
        uint64_t drain;
        while (::read(wakefd_, &drain, sizeof(drain)) > 0) {
        }
        wake_armed_.store(false);
        stats_.wakeups.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Pin the conn for the duration of this event: a handler-initiated
      // close must not free it out from under the checks below.
      const auto it = conns_.find(c);
      if (it == conns_.end()) continue;  // closed earlier in this ready set
      const LoopConnPtr guard = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        CloseNow(c);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) HandleReadable(c);
      if (c->in_loop_ && (events[i].events & EPOLLOUT) != 0) HandleWritable(c);
    }
    // The stop iteration runs the whole batch too: responses queued before
    // Stop() are flushed while the peers are still alive and writable, not
    // silently dropped by the teardown below.
    if (!DrainInbox()) break;
  }

  // Teardown: every remaining connection closes through the same path a
  // peer disconnect takes, so owners observe a single on_close either way.
  std::vector<LoopConnPtr> remaining;
  remaining.reserve(conns_.size());
  for (auto& [ptr, ref] : conns_) remaining.push_back(ref);
  for (const LoopConnPtr& c : remaining) CloseNow(c.get());
}

bool EventLoop::DrainInbox() {
  {
    MutexLock lock(inbox_mu_);
    draining_.swap(inbox_);
  }
  bool keep_running = true;
  in_drain_ = true;
  for (Item& item : draining_) {
    switch (item.kind) {
      case Item::Kind::kAdd: {
        LoopConn* c = item.conn.get();
        conns_.emplace(c, item.conn);
        c->in_loop_ = true;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.ptr = c;
        PARTDB_CHECK(::epoll_ctl(epfd_, EPOLL_CTL_ADD, c->sock_.fd(), &ev) == 0);
        break;
      }
      case Item::Kind::kFlush:
        if (item.conn->in_loop_) FlushConn(item.conn.get());
        break;
      case Item::Kind::kStop:
        keep_running = false;  // finish this batch, then tear down
        break;
    }
  }
  in_drain_ = false;
  draining_.clear();
  return keep_running;
}

void EventLoop::HandleReadable(LoopConn* c) {
  // Make room: compact once the dead prefix is worth a memmove (or blocks
  // the tail), then grow geometrically until the in-flight frame fits.
  if (c->rhead_ == c->rtail_) {
    c->rhead_ = c->rtail_ = 0;
  } else if (c->rhead_ >= kCompactThreshold ||
             (c->rbuf_.size() - c->rtail_ < kReadChunk && c->rhead_ > 0)) {
    std::memmove(c->rbuf_.data(), c->rbuf_.data() + c->rhead_, c->rtail_ - c->rhead_);
    c->rtail_ -= c->rhead_;
    c->rhead_ = 0;
  }
  if (c->rbuf_.size() - c->rtail_ < kReadChunk) {
    c->rbuf_.resize(std::max(c->rtail_ + kReadChunk, c->rbuf_.size() * 2));
  }

  const ssize_t r =
      ::recv(c->sock_.fd(), c->rbuf_.data() + c->rtail_, c->rbuf_.size() - c->rtail_, 0);
  if (r == 0) {
    CloseNow(c);
    return;
  }
  if (r < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseNow(c);
    return;
  }
  c->rtail_ += static_cast<size_t>(r);
  stats_.bytes_in.fetch_add(static_cast<uint64_t>(r), std::memory_order_relaxed);

  // Decode every complete frame in place; the handler sees the body where
  // it landed, no per-frame copy. Counted before the handler runs: a waiter
  // the handler's callback releases may read stats() immediately.
  while (c->in_loop_) {
    FrameView fv;
    size_t consumed = 0;
    const FrameDecode d = TryDecodeFrame(
        std::string_view(c->rbuf_.data() + c->rhead_, c->rtail_ - c->rhead_), &fv, &consumed);
    if (d == FrameDecode::kNeedMore) break;
    if (d == FrameDecode::kError) {
      CloseNow(c);
      break;
    }
    c->rhead_ += consumed;
    stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
    if (!c->handlers_.on_frame(*c, fv)) {
      CloseNow(c);
      break;
    }
  }
}

void EventLoop::HandleWritable(LoopConn* c) { FlushConn(c); }

void EventLoop::FlushConn(LoopConn* c) {
  // Swap the producers' outbox for the (empty, capacity-retaining) scratch
  // buffer; clearing flush_queued_ here means frames arriving from now on
  // schedule the next flush themselves.
  {
    MutexLock lock(c->out_mu_);
    std::swap(c->outbox_, c->scratch_);
    c->flush_queued_ = false;
  }
  const size_t unsent_len = c->unsent_.size() - c->unsent_off_;
  size_t total = unsent_len + c->scratch_.size();
  if (total == 0) {
    if (c->want_write_) UpdateEpollOut(c, false);
    return;
  }

  // One gathered send for the leftover of the previous short write plus the
  // whole fresh batch — the "one syscall per ready set" path.
  while (total > 0) {
    iovec iov[2];
    int iovcnt = 0;
    const size_t lead = c->unsent_.size() - c->unsent_off_;
    if (lead > 0) {
      iov[iovcnt++] = {c->unsent_.data() + c->unsent_off_, lead};
    }
    if (!c->scratch_.empty()) {
      iov[iovcnt++] = {c->scratch_.data(), c->scratch_.size()};
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    const ssize_t w = ::sendmsg(c->sock_.fd(), &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // kernel buffer full
      CloseNow(c);
      return;
    }
    stats_.flush_batches.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_out.fetch_add(static_cast<uint64_t>(w), std::memory_order_relaxed);
    size_t n = static_cast<size_t>(w);
    total -= n;
    if (n >= lead) {
      n -= lead;
      c->unsent_.clear();
      c->unsent_off_ = 0;
      if (n > 0) c->scratch_.erase(0, n);  // partial batch write (rare)
    } else {
      c->unsent_off_ += n;
    }
  }

  if (!c->scratch_.empty()) {
    // Short write: stash the rest and let EPOLLOUT finish the job.
    c->unsent_.append(c->scratch_);
    c->scratch_.clear();
  }
  const bool backlogged = c->unsent_.size() > c->unsent_off_;
  if (backlogged != c->want_write_) UpdateEpollOut(c, backlogged);
  if (!backlogged) {
    c->unsent_.clear();
    c->unsent_off_ = 0;
  }
}

void EventLoop::UpdateEpollOut(LoopConn* c, bool want) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.ptr = c;
  PARTDB_CHECK(::epoll_ctl(epfd_, EPOLL_CTL_MOD, c->sock_.fd(), &ev) == 0);
  c->want_write_ = want;
}

void EventLoop::CloseNow(LoopConn* c) {
  if (!c->in_loop_) return;
  c->in_loop_ = false;
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c->sock_.fd(), nullptr);
  auto it = conns_.find(c);
  PARTDB_CHECK(it != conns_.end());
  const LoopConnPtr ref = std::move(it->second);  // keep alive through on_close
  conns_.erase(it);
  {
    MutexLock lock(c->out_mu_);
    c->closed_ = true;  // producers drop frames from here on
  }
  if (c->handlers_.on_close) c->handlers_.on_close(*c);
  // Handler captures may own the object that owns this conn (e.g. the
  // client's MuxConn holds the LoopConnPtr back) — drop them or the
  // shared_ptr cycle leaks both.
  c->handlers_ = {};
  c->sock_.Close();  // only the loop thread ever touches the fd
}

}  // namespace partdb

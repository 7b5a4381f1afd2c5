#include "runtime/parallel_runtime.h"

#include <algorithm>

#include "common/logging.h"
#include "common/mutex.h"
#include "runtime/actor.h"

namespace partdb {

using std::chrono::steady_clock;

namespace {
/// Items processed per mailbox drain before the worker re-checks the stop
/// flag and recomputes its timer deadline. Large enough to amortize the
/// drain, small enough to keep stop/timer latency bounded.
constexpr size_t kDrainBatch = 256;
}  // namespace

thread_local const ParallelRuntime::Worker* ParallelRuntime::current_worker_ = nullptr;

ParallelRuntime::ParallelRuntime(int num_workers) {
  PARTDB_CHECK(num_workers >= 1);
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) workers_.push_back(std::make_unique<Worker>());
  for (auto& w : workers_) w->mailbox.set_idle_signal(&idle_signal_);
}

ParallelRuntime::~ParallelRuntime() { Stop(); }

void ParallelRuntime::MapNode(NodeId node, int worker) {
  PARTDB_CHECK(node >= 0 && worker >= 0 && worker < num_workers());
  if (static_cast<size_t>(node) >= node_worker_.size()) {
    node_worker_.resize(node + 1, -1);
  }
  PARTDB_CHECK(node_worker_[node] == -1);
  node_worker_[node] = worker;
}

int ParallelRuntime::worker_of(NodeId node) const {
  PARTDB_CHECK(node >= 0 && static_cast<size_t>(node) < node_worker_.size());
  const int w = node_worker_[node];
  PARTDB_CHECK(w >= 0);
  return w;
}

void ParallelRuntime::Register(NodeId node, Actor* actor) {
  PARTDB_CHECK(!started_.load());
  Worker* worker = workers_[worker_of(node)].get();  // must be mapped first
  if (static_cast<size_t>(node) >= endpoints_.size()) {
    endpoints_.resize(node + 1, nullptr);
  }
  PARTDB_CHECK(endpoints_[node] == nullptr);
  endpoints_[node] = actor;
  worker->actors.push_back(actor);
}

Actor* ParallelRuntime::endpoint(NodeId node) const {
  PARTDB_CHECK(node >= 0 && static_cast<size_t>(node) < endpoints_.size());
  PARTDB_CHECK(endpoints_[node] != nullptr);
  return endpoints_[node];
}

Time ParallelRuntime::Now() const {
  if (!started_.load(std::memory_order_acquire)) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(steady_clock::now() - start_tp_)
      .count();
}

void ParallelRuntime::Send(Message msg, Time /*depart*/) {
  workers_[worker_of(msg.dst)]->mailbox.PushMessage(std::move(msg));
}

void ParallelRuntime::SetTimer(NodeId self, Time at, TimerFire t) {
  // Every timer is armed by a handler running on its own worker (lock
  // timeouts, retry backoff), so it goes straight into that worker's heap.
  Worker* w = workers_[worker_of(self)].get();
  PARTDB_CHECK(current_worker_ == w);
  w->timers.push(TimerEntry{at, self, t});
  w->timer_count.store(w->timers.size(), std::memory_order_relaxed);
}

void ParallelRuntime::Start() {
  PARTDB_CHECK(!started_.load());
  start_tp_ = steady_clock::now();
  started_.store(true, std::memory_order_release);
  for (int i = 0; i < num_workers(); ++i) {
    Worker* worker = workers_[i].get();
    worker->thread = std::thread([this, worker, i]() { WorkerLoop(worker, i); });
  }
}

void ParallelRuntime::Stop() {
  if (!started_.load() || stop_.exchange(true)) return;
  for (auto& w : workers_) {
    w->mailbox.PushControl([]() {});  // wake a parked consumer
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void ParallelRuntime::RunOn(int worker, std::function<void()> fn) {
  struct Rendezvous {
    Mutex mu;
    CondVar cv;
    bool done PARTDB_GUARDED_BY(mu) = false;
  } sync;
  workers_[worker]->mailbox.PushControl([&fn, &sync]() {
    fn();
    // Notify under the lock: `sync` lives on the caller's stack, and the
    // waiter may observe done==true and return (destroying sync) the instant
    // it holds mu — so nothing may touch sync after the unlock.
    MutexLock lock(sync.mu);
    sync.done = true;
    sync.cv.NotifyOne();
  });
  MutexLock lock(sync.mu);
  while (!sync.done) sync.cv.Wait(sync.mu);
}

void ParallelRuntime::FireDueTimers(Worker* w) {
  if (w->timers.empty()) return;
  const Time now = Now();
  while (!w->timers.empty() && w->timers.top().at <= now) {
    TimerEntry e = w->timers.top();
    w->timers.pop();
    w->timer_count.store(w->timers.size(), std::memory_order_relaxed);
    Message m;
    m.src = e.self;
    m.dst = e.self;
    m.body = e.t;
    endpoint(e.self)->Handle(m, Now());
  }
}

void ParallelRuntime::WorkerLoop(Worker* w, int index) {
  const int cpu = AffinityCpuFor(affinity_, index);
  if (cpu >= 0 && PinCurrentThreadToCpu(cpu)) {
    pinned_workers_.fetch_add(1, std::memory_order_relaxed);
  }
  current_worker_ = w;
  while (!stop_.load(std::memory_order_relaxed)) {
    FireDueTimers(w);
    // Nothing left to handle: the drain below would park.
    if (w->mailbox.Empty()) {
      for (Actor* a : w->actors) a->OnIdle();
    }

    steady_clock::time_point deadline = steady_clock::now() + std::chrono::milliseconds(100);
    if (!w->timers.empty()) {
      const steady_clock::time_point next_timer =
          start_tp_ + std::chrono::nanoseconds(w->timers.top().at);
      if (next_timer < deadline) deadline = next_timer;
    }

    // Batch drain. Due timers still fire between items, so timer fidelity
    // matches the one-message-at-a-time loop. A message runs its handler
    // straight from the mailbox node: the mailbox is the only queue on this
    // path, and the handler's real elapsed time is its cost (the
    // charged virtual cost only feeds busy_ns accounting).
    w->mailbox.DrainUntil(deadline, kDrainBatch, [&](MailboxNode* n) {
      switch (n->kind) {
        case MailboxNode::Kind::kMessage:
          endpoint(n->msg.dst)->Handle(n->msg, Now());
          break;
        case MailboxNode::Kind::kControl:
          n->control();
          break;
        case MailboxNode::Kind::kNone:
          break;
      }
      FireDueTimers(w);
    });
  }
}

bool ParallelRuntime::WaitQuiescent(std::chrono::steady_clock::duration timeout) {
  const steady_clock::time_point give_up = steady_clock::now() + timeout;
  uint64_t prev_pushed = ~0ull;
  bool ok = false;
  MutexLock lock(idle_signal_.mu);
  idle_signal_.armed.store(true, std::memory_order_release);
  for (;;) {
    bool calm = true;
    uint64_t pushed = 0;
    for (const auto& w : workers_) {
      if (!w->mailbox.consumer_waiting() || !w->mailbox.Empty() ||
          w->timer_count.load(std::memory_order_relaxed) != 0) {
        calm = false;
        break;
      }
      pushed += w->mailbox.pushed();
    }
    if (calm && pushed == prev_pushed) {
      ok = true;
      break;
    }
    prev_pushed = calm ? pushed : ~0ull;
    const steady_clock::time_point now = steady_clock::now();
    if (now >= give_up) break;
    // Sleep until the next park event. Parkers serialize on idle_signal_.mu
    // to notify, so an event between our scan and this wait cannot be lost —
    // the backstop only covers state changes that raise no park event (an
    // in-flight push landing, a timer being consumed).
    const steady_clock::time_point backstop =
        now + (calm ? std::chrono::microseconds(200) : std::chrono::milliseconds(1));
    idle_signal_.cv.WaitUntil(idle_signal_.mu, std::min(give_up, backstop));
  }
  idle_signal_.armed.store(false, std::memory_order_release);
  return ok;
}

ParallelRuntime::Stats ParallelRuntime::GetStats() const {
  Stats s;
  s.num_workers = num_workers();
  s.pinned_workers = pinned_workers_.load(std::memory_order_relaxed);
  for (const auto& w : workers_) {
    const Mailbox::Stats ms = w->mailbox.stats();
    s.mailbox_pushed += ms.pushed;
    s.mailbox_popped += ms.popped;
    s.mailbox_wakes += ms.wakes;
    s.mailbox_parks += ms.parks;
  }
  return s;
}

}  // namespace partdb

// ParallelRuntime: the hardware-speed ExecutionContext. Each worker is one
// OS thread owning a disjoint set of actors (thread-per-partition for
// primaries); messages travel through MPSC mailboxes and time is the
// wall-clock nanoseconds since Start(). An actor's handlers run only on
// its owning worker, so the single-threaded CcScheme/Engine code runs
// unchanged — concurrency control stays as cheap as the paper claims, now at
// the speed the hardware allows.
#ifndef PARTDB_RUNTIME_PARALLEL_RUNTIME_H_
#define PARTDB_RUNTIME_PARALLEL_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/types.h"
#include "runtime/execution_context.h"
#include "runtime/mailbox.h"

namespace partdb {

class ParallelRuntime : public ExecutionContext {
 public:
  /// Ingress-path counters aggregated over every worker mailbox
  /// (Database::Stats surfaces these).
  struct Stats {
    uint64_t mailbox_pushed = 0;
    uint64_t mailbox_popped = 0;
    uint64_t mailbox_push_batches = 0;  // producer lock acquisitions
    uint64_t mailbox_wakes = 0;  // eventfd writes (empty->nonempty edges)
    uint64_t mailbox_parks = 0;  // consumer park transitions
    /// Always 0: the mailbox is one mutex plus two vectors, with no CAS
    /// loop and no node cache. The fields remain because bench_partdb reads
    /// them.
    uint64_t mailbox_cas_retries = 0;
    uint64_t node_cache_hits = 0;
    uint64_t node_cache_misses = 0;
    int num_workers = 0;
  };

  explicit ParallelRuntime(int num_workers);
  ~ParallelRuntime() override;
  ParallelRuntime(const ParallelRuntime&) = delete;
  ParallelRuntime& operator=(const ParallelRuntime&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Assigns `node` to `worker`. Must be called before Register/Bind for that
  /// node; all wiring happens on the main thread before Start().
  void MapNode(NodeId node, int worker);
  int worker_of(NodeId node) const;

  /// Launches the worker threads. Items pushed before Start() (e.g. client
  /// kicks) are processed once the workers come up.
  void Start();

  /// Stops and joins all workers. Queued items may be left unprocessed; call
  /// WaitQuiescent() first for a clean drain. Idempotent.
  void Stop();

  /// Runs `fn` on worker `w`'s thread and blocks until it has run. Use for
  /// anything touching actor-owned state from the outside (metric flips,
  /// client stop). Must not be called from a worker thread.
  void RunOn(int worker, std::function<void()> fn);
  void RunOnOwner(NodeId node, std::function<void()> fn) {
    RunOn(worker_of(node), std::move(fn));
  }

  /// Blocks until no work is in flight: all mailboxes drained, all timers
  /// fired, all workers parked — observed stably twice. Event-driven: sleeps
  /// on the shared park signal the mailboxes raise instead of polling. Only
  /// meaningful once traffic generation has stopped. Returns false if
  /// `timeout` elapses.
  bool WaitQuiescent(std::chrono::steady_clock::duration timeout);

  Stats GetStats() const;

  // ExecutionContext:
  Time Now() const override;
  /// From a handler on one of this runtime's workers, the message waits in
  /// that worker's outbox for the destination worker, and the worker pushes
  /// each outbox with one PushMessages when its drained batch is fully
  /// handed out and at the top of its loop, so it never spins, parks or
  /// goes idle with a send still buffered. From any other thread (a driver,
  /// a net loop, a log writer, another runtime's worker) it pushes straight
  /// into the destination mailbox.
  void Send(Message msg, Time depart) override;
  void Register(NodeId node, Actor* actor) override;
  void SetTimer(NodeId self, Time at, TimerFire t) override;

 private:
  struct TimerEntry {
    Time at = 0;
    NodeId self = kInvalidNode;
    TimerFire t;
    bool operator>(const TimerEntry& o) const { return at > o.at; }
  };

  struct Worker {
    Mailbox mailbox;
    std::thread thread;
    // Owned by the worker thread after Start(): only its own handlers arm
    // timers (SetTimer checks the caller against current_worker_).
    std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<TimerEntry>> timers;
    std::atomic<size_t> timer_count{0};
    std::vector<Actor*> actors;  // hosted here; read-only after Start
    // Owned by the worker thread: what its handlers sent, by destination
    // worker, until the next FlushOutbox. The vectors keep their capacity.
    std::vector<std::vector<Message>> outbox;
    const ParallelRuntime* owner = nullptr;
  };

  /// The worker whose loop runs on this thread (null off the workers). It
  /// may belong to another runtime: Send checks `owner`.
  static thread_local Worker* current_worker_;

  void WorkerLoop(Worker* w);
  void FireDueTimers(Worker* w);
  /// Pushes each non-empty outbox of `w` to its destination mailbox.
  void FlushOutbox(Worker* w);
  Actor* endpoint(NodeId node) const;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<int> node_worker_;     // NodeId -> worker index, -1 unmapped
  std::vector<Actor*> endpoints_;    // NodeId -> actor, read-only after Start
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::chrono::steady_clock::time_point start_tp_;
  /// Park-event channel shared by every worker mailbox (WaitQuiescent).
  MailboxIdleSignal idle_signal_;
};

}  // namespace partdb

#endif  // PARTDB_RUNTIME_PARALLEL_RUNTIME_H_

// ParallelRuntime: the hardware-speed ExecutionContext. Each worker is one
// OS thread owning a disjoint set of actors (thread-per-partition for
// primaries); messages travel through MPSC mailboxes and time is the
// wall-clock nanoseconds since Start(). An actor's handlers run only on
// its owning worker, so the single-threaded CcScheme/Engine code runs
// unchanged — concurrency control stays as cheap as the paper claims, now at
// the speed the hardware allows. Workers can optionally be pinned to CPUs
// (round-robin or an explicit list) to keep cache/NUMA locality stable.
#ifndef PARTDB_RUNTIME_PARALLEL_RUNTIME_H_
#define PARTDB_RUNTIME_PARALLEL_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/affinity.h"
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
    uint64_t mailbox_wakes = 0;  // condvar notifies (empty->nonempty edges)
    uint64_t mailbox_parks = 0;  // consumer park transitions
    /// Always 0: the mailbox is one mutex plus two vectors, with no CAS
    /// loop and no node cache. The fields remain because bench_partdb reads
    /// them.
    uint64_t mailbox_cas_retries = 0;
    uint64_t node_cache_hits = 0;
    uint64_t node_cache_misses = 0;
    int pinned_workers = 0;  // workers whose CPU pin succeeded
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

  /// Worker CPU pinning policy. Set before Start(); each worker pins itself
  /// as its thread comes up (failed pins are counted, never fatal).
  void set_affinity(CpuAffinity a) { affinity_ = std::move(a); }

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
  };

  /// The worker whose loop runs on this thread (null off the workers).
  static thread_local const Worker* current_worker_;

  void WorkerLoop(Worker* w, int index);
  void FireDueTimers(Worker* w);
  Actor* endpoint(NodeId node) const;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<int> node_worker_;     // NodeId -> worker index, -1 unmapped
  std::vector<Actor*> endpoints_;    // NodeId -> actor, read-only after Start
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::chrono::steady_clock::time_point start_tp_;
  CpuAffinity affinity_;  // set before Start
  std::atomic<int> pinned_workers_{0};
  /// Park-event channel shared by every worker mailbox (WaitQuiescent).
  MailboxIdleSignal idle_signal_;
};

}  // namespace partdb

#endif  // PARTDB_RUNTIME_PARALLEL_RUNTIME_H_

// Database: the embedded-database façade and main public entry point of the
// library. Database::Open builds one database instance — partitions running
// the chosen concurrency-control scheme, optional backups, the central
// coordinator and the session ingress slots — on either execution context
// (deterministic simulation or the thread-per-partition parallel runtime),
// seals the stored-procedure registry, and hands out Sessions that driver
// threads submit named procedures through. This is the single ingress path
// of the system — the figure benches and the closed-loop driver
// (db/closed_loop) run over it too. Tests and benches read engines, commit
// logs and the simulator through the accessors at the end of the class.
#ifndef PARTDB_DB_DATABASE_H_
#define PARTDB_DB_DATABASE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "client/routing.h"
#include "common/mutex.h"
#include "coord/coordinator_actor.h"
#include "db/db_handle.h"
#include "db/db_options.h"
#include "db/procedure_registry.h"
#include "db/session.h"
#include "durability/command_log.h"
#include "durability/recovery.h"
#include "engine/partition_actor.h"
#include "engine/replication.h"
#include "runtime/metrics.h"
#include "runtime/parallel_runtime.h"
#include "sim/network.h"
#include "sim/sim_context.h"
#include "sim/simulator.h"

namespace partdb {

class Database : public DbHandle {
 public:
  /// Builds and starts a database. In parallel mode the worker threads are
  /// running when this returns; in simulated mode the virtual clock advances
  /// whenever a session Execute/Drain pumps it.
  static std::unique_ptr<Database> Open(DbOptions options);

  ~Database() override;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Id of a registered procedure. CHECK-fails when absent (use
  /// registry().Find for a probing lookup).
  ProcId proc(std::string_view name) const override;
  const ProcedureRegistry& registry() const { return registry_; }
  RunMode mode() const override { return options_.mode; }
  const DbOptions& options() const { return options_; }

  /// Hands out a session slot. Thread-safe. Destroy every Session before the
  /// Database; the destructor returns the slot.
  std::unique_ptr<Session> CreateSession() override;

  /// Like CreateSession, but returns null when every slot is taken instead
  /// of CHECK-failing — for callers where slot demand is external input (the
  /// network tier's per-connection sessions).
  std::unique_ptr<Session> TryCreateSession();

  /// Begins a metrics window (throughput, latency histograms, per-procedure
  /// outcomes, CPU utilization), the same in both modes: every measured
  /// actor's metrics and busy time reset on the actor's own thread, so no
  /// counter is touched across threads.
  void BeginMeasurement() override;
  /// Ends the window and returns the merged metrics snapshot, with the
  /// window length, partition count and busy times filled in. The database
  /// keeps running.
  Metrics EndMeasurement() override;

  /// Ingress hot-path counters (parallel mode: mailbox push/pop/wake/park
  /// totals and worker pin outcomes — all zeros in simulated mode) plus the
  /// durability tier's log-writer counters (batches, fsyncs, bytes; zeros
  /// when durability is off). Thread-safe; monotonic since Open.
  struct DbStats {
    ParallelRuntime::Stats runtime;
    DurabilityStats durability;
  };
  DbStats Stats() const;

  /// What the last finished measurement window cost beyond its throughput:
  /// mailbox messages pushed and condvar wakes taken over the window
  /// (parallel mode; zeros in simulated mode) and the process's user plus
  /// system CPU time over it (getrusage). Snapshotted by BeginMeasurement
  /// and EndMeasurement; read it after EndMeasurement, on the same thread.
  struct WindowCost {
    uint64_t mailbox_pushed = 0;
    uint64_t mailbox_wakes = 0;
    double cpu_s = 0;
  };
  const WindowCost& last_window_cost() const { return window_cost_; }

  /// What Open's recovery pass found (performed == false on a fresh
  /// directory or when durability is off).
  const RecoveryReport& recovery_report() const { return recovery_report_; }

  /// Takes a transactionally-consistent checkpoint of every partition and
  /// truncates the logs behind it. Partitions snapshot one at a time, each
  /// at its next point between transactions
  /// (PartitionActor::RunAtIdlePoint): new transactions park there until
  /// the work already admitted drains — no global pause. One call at a time.
  /// Returns false only when a test already crashed a log
  /// (PartitionLog::Crash).
  bool Checkpoint();

  /// Simulated mode: advances the virtual clock by `d` (closed-loop
  /// measurement windows with traffic already in flight).
  void AdvanceSim(Duration d) override;

  /// Drains every session, runs in-flight work dry, stops the runtime
  /// (parallel mode joins all workers) and verifies the partitions are
  /// quiescent. Idempotent; the destructor calls it. Submissions after Close
  /// are illegal.
  void Close();

  // Internals for tests and benches. Valid until the Database is destroyed.
  Simulator& sim() { return sim_; }
  /// Null in simulated mode.
  ParallelRuntime* parallel_runtime() { return parallel_.get(); }
  Engine& engine(PartitionId p) { return partitions_[p]->engine(); }
  PartitionActor& partition(PartitionId p) { return *partitions_[p]; }
  Engine& backup_engine(PartitionId p, int backup_index) {
    return backups_[p][backup_index]->engine();
  }
  const std::vector<CommitRecord>& commit_log(PartitionId p) const {
    return partitions_[p]->commit_log();
  }
  /// Partition p's command log; requires DbOptions::durability.
  PartitionLog& partition_log(PartitionId p) { return *logs_[p]; }
  /// A shim for bench_partdb alone, which still reaches engines through it
  /// and whose files change only together with the benchmark. Delete it once
  /// bench_partdb calls engine(p) directly.
  Database& cluster() { return *this; }

 private:
  friend class LocalSession;

  /// An actor whose window is measured: its private metrics sink (if any) is
  /// reset at the start of each window and merged at the end, on the actor's
  /// own thread, and its busy time likewise.
  struct Measured {
    Actor* actor;
    std::unique_ptr<Metrics> metrics;  // null: busy time only (the coordinator)
    /// The window field the actor's busy time sums into (null: not reported).
    Duration Metrics::*busy;
  };

  explicit Database(DbOptions options);

  /// Runs `fn` on the thread that owns `a`: its worker in parallel mode, the
  /// caller in simulation. Blocks until it has run.
  void RunOnOwner(const Actor* a, const std::function<void()>& fn);
  /// Simulated mode: runs events until `done()`; CHECK-fails if the event
  /// queue empties first (the transaction could never complete).
  void PumpSimUntil(const std::function<bool()>& done);
  void ReleaseSession(SessionActor* actor);

  DbOptions options_;
  ProcedureRegistry registry_;
  Simulator sim_;
  Network net_;
  SimContext sim_exec_;
  std::unique_ptr<ParallelRuntime> parallel_;  // parallel mode only
  ExecutionContext* exec_ = nullptr;           // the bound context (sim or parallel)
  Topology topology_;
  std::unique_ptr<CoordinatorActor> coordinator_;
  std::vector<std::unique_ptr<PartitionActor>> partitions_;
  std::vector<std::vector<std::unique_ptr<BackupActor>>> backups_;  // [partition][replica]
  std::vector<std::unique_ptr<SessionActor>> session_actors_;
  std::vector<Measured> measured_;  // partitions, coordinator, then sessions
  Time window_start_ = 0;
  /// The counters at BeginMeasurement until EndMeasurement turns them into
  /// the window's deltas.
  WindowCost window_cost_;
  RecoveryReport recovery_report_;

  Mutex mu_;
  std::vector<int> free_slots_ PARTDB_GUARDED_BY(mu_);
  bool closed_ PARTDB_GUARDED_BY(mu_) = false;
  /// One command log per partition, empty when durability is off. Declared
  /// last, after the runtime and the actors, so the logs are destroyed first.
  std::vector<std::unique_ptr<PartitionLog>> logs_;
};

}  // namespace partdb

#endif  // PARTDB_DB_DATABASE_H_

// Database: the embedded-database façade and main public entry point of the
// library. Database::Open builds one database instance — partitions running
// the chosen concurrency-control scheme, optional backups, the central
// coordinator — on either execution context (deterministic simulation or the
// thread-per-partition parallel runtime), seals the stored-procedure
// registry, and hands out Sessions that driver threads submit named
// procedures through. This is the single ingress path of the system — the
// figure benches and the closed-loop driver (db/closed_loop) run over it
// too; cluster() is the escape hatch tests and benches use for engines and
// commit logs.
#ifndef PARTDB_DB_DATABASE_H_
#define PARTDB_DB_DATABASE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "db/cluster.h"
#include "db/db_handle.h"
#include "db/db_options.h"
#include "db/procedure_registry.h"
#include "db/session.h"
#include "durability/durability_manager.h"
#include "durability/recovery.h"

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

  /// Begins/ends a metrics window (throughput, latency histograms,
  /// per-procedure outcomes, CPU utilization) through
  /// Cluster::BeginWindow/EndWindow, the same in both modes.
  void BeginMeasurement() override;
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

  /// What Open's recovery pass found (performed == false on a fresh
  /// directory or when durability is off).
  const RecoveryReport& recovery_report() const { return recovery_report_; }

  /// Durability tier handle (crash flag, per-partition logs); null when
  /// DbOptions::durability is kOff.
  DurabilityManager* durability() { return durability_.get(); }

  /// Takes a transactionally-consistent checkpoint of every partition and
  /// truncates the logs behind it (unless keep_truncated_log_segments).
  /// Partitions snapshot one at a time, each at its next point between
  /// transactions (PartitionActor::RunAtIdlePoint): new transactions park
  /// there until the work already admitted drains — no global pause. One
  /// call at a time. Returns false only when the injected crash already
  /// fired.
  bool Checkpoint();

  /// Simulated mode: advances the virtual clock by `d` (closed-loop
  /// measurement windows with traffic already in flight).
  void AdvanceSim(Duration d) override;

  /// Drains every session, stops the runtime (parallel mode joins all
  /// workers) and verifies the partitions are quiescent. Idempotent; the
  /// destructor calls it. Submissions after Close are illegal.
  void Close();

  /// Internal wiring layer (engines, commit logs, the simulator). The
  /// cluster stays valid until the Database is destroyed.
  Cluster& cluster() { return *cluster_; }

 private:
  friend class LocalSession;

  explicit Database(DbOptions options);

  /// Simulated mode: runs events until `done()`; CHECK-fails if the event
  /// queue empties first (the transaction could never complete).
  void PumpSimUntil(const std::function<bool()>& done);
  void ReleaseSession(SessionActor* actor);

  DbOptions options_;
  ProcedureRegistry registry_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<SessionActor>> session_actors_;
  RecoveryReport recovery_report_;
  std::unique_ptr<DurabilityManager> durability_;  // after cluster_: dies first

  Mutex mu_;
  std::vector<int> free_slots_ PARTDB_GUARDED_BY(mu_);
  bool closed_ PARTDB_GUARDED_BY(mu_) = false;
};

}  // namespace partdb

#endif  // PARTDB_DB_DATABASE_H_

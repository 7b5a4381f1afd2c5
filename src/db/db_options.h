// DbOptions: the one configuration of a database instance. Database::Open
// takes it and builds every partition, backup, coordinator and session slot
// straight from its own copy.
#ifndef PARTDB_DB_DB_OPTIONS_H_
#define PARTDB_DB_DB_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "db/procedure_registry.h"
#include "engine/cost_model.h"
#include "engine/engine.h"
#include "sim/network.h"

namespace partdb {

/// How a database executes: on the virtual clock (deterministic, models the
/// paper's hardware) or on real threads at hardware speed.
enum class RunMode { kSimulated, kParallel };

/// What "committed" means to the client (DbOptions::durability).
///  - kOff:         memory only, no log.
///  - kAsync:       every commit is logged and fsynced by the writer thread,
///                  each batch held open for the full group_commit_window,
///                  but completions do not wait for it — a crash may lose the
///                  acknowledged commits of about one window plus two fsyncs.
///  - kGroupCommit: completions are held until the commit's batch is durable
///                  on every participating partition's log. A partition
///                  closes its batch as soon as its worker goes idle, so a
///                  lone commit waits for one write+fsync; the window caps
///                  how long a batch stays open under load.
enum class DurabilityMode { kOff, kAsync, kGroupCommit };

const char* DurabilityModeName(DurabilityMode m);

struct DbOptions {
  /// Name of the concurrency-control scheme, resolved through
  /// CcSchemeRegistry::Global() at Open ("blocking", "speculation",
  /// "locking", "occ" or "mvcc"). An unknown name fails loudly, listing the
  /// known schemes.
  std::string scheme = "speculation";
  RunMode mode = RunMode::kParallel;
  int num_partitions = 2;
  /// Total copies of each partition including the primary (k in §2.2).
  int replication = 1;
  /// Backups replay transactions for real (tests) vs. charging cost only.
  bool backups_execute = false;
  /// Session slots created at Open (sessions must bind before the parallel
  /// workers start); CreateSession hands them out and recycles them.
  int max_sessions = 16;
  /// Admission control / backpressure: at most this many transactions
  /// admitted-and-uncompleted per session (0 = unlimited). Submissions past
  /// the bound return SubmitResult{accepted = false} instead of queueing —
  /// the overload signal open-loop drivers surface. Enforced identically by
  /// embedded sessions and remote sessions (the server's handshake carries
  /// the bound to clients).
  uint64_t max_inflight_per_session = 0;
  NetworkConfig net;
  CostModel cost;
  uint64_t seed = 12345;
  /// Record per-partition commit logs (serializability verification).
  bool log_commits = false;
  /// Restrict speculation to local speculation (§4.2.1): multi-partition
  /// transactions are never speculated. Used by the fig. 10 "Local Spec"
  /// curves and the speculation ablation.
  bool local_speculation_only = false;
  /// Disable the locking scheme's no-lock fast path (§5.1 remark).
  bool force_locks = false;
  /// Builds the engine for each partition, primaries and backups alike.
  /// Required.
  EngineFactory engine_factory;
  /// Stored procedures to register. The registry is sealed once Open returns
  /// (sessions and the coordinator read it concurrently afterwards).
  std::vector<ProcedureDescriptor> procedures;

  // Durability (command logging, README "Durability"). Parallel mode only.
  /// kOff: memory only. kAsync: commits are logged+fsynced off the critical
  /// path but completions do not wait, so a crash may lose about one
  /// group_commit_window plus two fsyncs of acknowledged commits.
  /// kGroupCommit: completions are held until the commit's batch is durable
  /// on every participant's log.
  DurabilityMode durability = DurabilityMode::kOff;
  /// Log/checkpoint directory (required when durability != kOff). Open on a
  /// directory with existing logs recovers: latest checkpoint per partition,
  /// then parallel log replay through the registered procedures.
  std::string log_dir;
  /// Batch window, in both kAsync and kGroupCommit: the longest each log
  /// writer holds a batch open so concurrent commits share one write+fsync,
  /// counted from when the writer picks the batch up, which comes after its
  /// previous write+fsync. kAsync holds every batch for the full window;
  /// under kGroupCommit a partition closes its batch as soon as its worker
  /// goes idle, so the window only caps batching under load.
  uint32_t group_commit_window_us = 200;
  /// Replay worker threads used by recovery (0 = one per partition).
  int recovery_workers = 0;
};

}  // namespace partdb

#endif  // PARTDB_DB_DB_OPTIONS_H_

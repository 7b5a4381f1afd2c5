// Cluster: the wiring under one Database — partitions running the chosen
// concurrency-control scheme, optional backups, the central coordinator and
// the session ingress slots — built straight from the Database's DbOptions
// and bound to one execution context: the deterministic discrete-event
// simulator or the thread-per-partition parallel runtime. One lifecycle
// (Start/Stop) and one measurement window (BeginWindow/EndWindow) serve both
// contexts.
//
// Database is the only user, and session actors bound via BindSession are
// the only ingress. Tests and benches reach the cluster through
// Database::cluster() for engines, commit logs and the simulator.
#ifndef PARTDB_DB_CLUSTER_H_
#define PARTDB_DB_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "cc/scheme_registry.h"
#include "client/routing.h"
#include "coord/coordinator_actor.h"
#include "db/db_options.h"
#include "engine/partition_actor.h"
#include "engine/replication.h"
#include "runtime/metrics.h"
#include "runtime/parallel_runtime.h"
#include "sim/network.h"
#include "sim/sim_context.h"
#include "sim/simulator.h"

namespace partdb {

class Cluster {
 public:
  /// `options` is the owning Database's and must outlive the cluster;
  /// `continuations` is the coordinator's continuation source for
  /// multi-round transactions (the Database passes its ProcedureRegistry).
  Cluster(const DbOptions& options, TxnContinuations* continuations);

  /// Binds `actor` as session ingress slot `i` and returns the metrics sink
  /// the actor should record into. Must be called before Start().
  Metrics* BindSession(int i, Actor* actor);

  /// Starts execution once every session slot is bound: launches the worker
  /// threads in parallel mode (the simulator advances whenever it is pumped).
  void Start();
  /// Begins a measurement window: every actor's metrics and busy time reset
  /// on the actor's own thread, so no counter is touched across threads.
  void BeginWindow();
  /// Ends the window and returns the merged metrics snapshot, with the
  /// window length, partition count and busy times filled in. The cluster
  /// keeps running.
  Metrics EndWindow();
  /// Runs in-flight work dry (session traffic must already have ceased),
  /// joins the workers in parallel mode, and checks every partition's scheme
  /// reports Idle().
  void Stop();

  Simulator& sim() { return sim_; }
  ExecutionContext& exec() { return *exec_; }
  ParallelRuntime* parallel_runtime() { return parallel_.get(); }

  Engine& engine(PartitionId p) { return partitions_[p]->engine(); }
  PartitionActor& partition(PartitionId p) { return *partitions_[p]; }
  Engine& backup_engine(PartitionId p, int backup_index);
  const Topology& topology() const { return topology_; }
  const std::vector<CommitRecord>& commit_log(PartitionId p) const {
    return partitions_[p]->commit_log();
  }

 private:
  /// An actor whose window is measured: its private metrics sink (if any) is
  /// reset at the start of each window and merged at the end, on the actor's
  /// own thread, and its busy time likewise.
  struct Measured {
    Actor* actor;
    std::unique_ptr<Metrics> metrics;  // null: busy time only (the coordinator)
    /// The window field the actor's busy time sums into (null: not reported).
    Duration Metrics::*busy;
  };

  /// Runs `fn` on the thread that owns `a`: its worker in parallel mode, the
  /// caller in simulation.
  void RunOnOwner(const Actor* a, const std::function<void()>& fn);

  const DbOptions& options_;
  Simulator sim_;
  Network net_;
  SimContext sim_exec_;
  std::unique_ptr<ParallelRuntime> parallel_;  // parallel mode only
  ExecutionContext* exec_ = nullptr;           // the bound context (sim or parallel)
  Topology topology_;
  std::unique_ptr<CoordinatorActor> coordinator_;
  std::vector<std::unique_ptr<PartitionActor>> partitions_;
  std::vector<std::vector<std::unique_ptr<BackupActor>>> backups_;  // [partition][replica]
  NodeId first_session_node_ = kInvalidNode;
  int bound_sessions_ = 0;
  std::vector<Measured> measured_;  // partitions, coordinator, then sessions
  Time window_start_ = 0;
  bool started_ = false;
};

}  // namespace partdb

#endif  // PARTDB_DB_CLUSTER_H_

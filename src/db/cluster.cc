#include "db/cluster.h"

#include <chrono>

#include "common/logging.h"

namespace partdb {

namespace {
/// Parallel-mode worker threads shared by the session ingress actors.
constexpr int kSessionWorkers = 2;
}  // namespace

Cluster::Cluster(const DbOptions& options, TxnContinuations* continuations)
    : options_(options), net_(options.net), sim_exec_(&sim_, &net_) {
  const int P = options_.num_partitions;
  PARTDB_CHECK(P >= 1);
  PARTDB_CHECK(options_.replication >= 1);
  PARTDB_CHECK(continuations != nullptr);

  // Node layout: coordinator 0, primaries [1, 1+P), backups afterwards,
  // session slots last.
  const NodeId coord_node = 0;
  topology_.coordinator = coord_node;
  topology_.durable_notices = options_.durability == DurabilityMode::kGroupCommit;
  for (int p = 0; p < P; ++p) topology_.partition_primary.push_back(coord_node + 1 + p);
  const int num_backups = P * (options_.replication - 1);
  first_session_node_ = coord_node + 1 + P + num_backups;

  if (options_.mode == RunMode::kParallel) {
    // Thread-per-partition (and per backup); the coordinator gets its own
    // worker; session ingress actors spread round-robin over their own
    // worker pool.
    parallel_ = std::make_unique<ParallelRuntime>(P + num_backups + 1 + kSessionWorkers);
    parallel_->set_affinity(options_.worker_affinity);
    const int coord_worker = P + num_backups;
    for (int p = 0; p < P; ++p) parallel_->MapNode(topology_.partition_primary[p], p);
    for (int b = 0; b < num_backups; ++b) parallel_->MapNode(coord_node + 1 + P + b, P + b);
    parallel_->MapNode(coord_node, coord_worker);
    for (int s = 0; s < options_.max_sessions; ++s) {
      parallel_->MapNode(first_session_node_ + s, coord_worker + 1 + s % kSessionWorkers);
    }
    exec_ = parallel_.get();
  } else {
    exec_ = &sim_exec_;
  }

  // Partitions.
  SchemeOptions scheme_opts;
  scheme_opts.local_speculation_only = options_.local_speculation_only;
  scheme_opts.force_locks = options_.force_locks;
  for (int p = 0; p < P; ++p) {
    auto sink = std::make_unique<Metrics>();
    auto part = std::make_unique<PartitionActor>("partition-" + std::to_string(p), p,
                                                 options_.engine_factory(p), options_.cost,
                                                 sink.get(), options_.lock_timeout);
    part->InstallScheme(CcSchemeRegistry::Global().Make(options_.scheme, part.get(), scheme_opts));
    if (options_.log_commits) part->EnableCommitLog();
    part->Bind(exec_, topology_.partition_primary[p]);
    measured_.push_back({part.get(), std::move(sink), &Metrics::partition_busy_ns});
    partitions_.push_back(std::move(part));
  }

  // Backups.
  NodeId next_node = coord_node + 1 + P;
  backups_.resize(P);
  for (int p = 0; p < P; ++p) {
    std::vector<NodeId> backup_nodes;
    for (int r = 1; r < options_.replication; ++r) {
      auto b = std::make_unique<BackupActor>(
          "backup-" + std::to_string(p) + "." + std::to_string(r), p, options_.engine_factory(p),
          options_.cost, options_.backups_execute);
      b->Bind(exec_, next_node);
      backup_nodes.push_back(next_node);
      ++next_node;
      backups_[p].push_back(std::move(b));
    }
    partitions_[p]->SetBackups(backup_nodes);
  }

  // Coordinator (used by blocking and speculation; locking sessions
  // self-coordinate, so it simply stays idle).
  coordinator_ = std::make_unique<CoordinatorActor>("coordinator", options_.cost, continuations,
                                                    topology_.partition_primary,
                                                    topology_.durable_notices);
  coordinator_->Bind(exec_, coord_node);
  measured_.push_back({coordinator_.get(), nullptr, &Metrics::coord_busy_ns});
}

Engine& Cluster::backup_engine(PartitionId p, int backup_index) {
  return backups_[p][backup_index]->engine();
}

Metrics* Cluster::BindSession(int i, Actor* actor) {
  PARTDB_CHECK(!started_);
  PARTDB_CHECK(i >= 0 && i < options_.max_sessions);
  actor->Bind(exec_, first_session_node_ + i);
  ++bound_sessions_;
  measured_.push_back({actor, std::make_unique<Metrics>(), nullptr});
  return measured_.back().metrics.get();
}

void Cluster::RunOnOwner(const Actor* a, const std::function<void()>& fn) {
  if (parallel_ != nullptr) {
    parallel_->RunOnOwner(a->node_id(), fn);
  } else {
    fn();
  }
}

void Cluster::Start() {
  PARTDB_CHECK(!started_);
  PARTDB_CHECK(bound_sessions_ == options_.max_sessions);
  started_ = true;
  if (parallel_ != nullptr) parallel_->Start();
}

void Cluster::BeginWindow() {
  PARTDB_CHECK(started_);
  for (Measured& m : measured_) {
    RunOnOwner(m.actor, [&m]() {
      if (m.metrics != nullptr) m.metrics->Reset();
      m.actor->ResetBusy();
    });
  }
  window_start_ = exec_->Now();
}

Metrics Cluster::EndWindow() {
  PARTDB_CHECK(started_);
  Metrics out;
  for (Measured& m : measured_) {
    // In parallel mode RunOnOwner blocks until the owning worker ran this,
    // so the merge reads a stable snapshot.
    RunOnOwner(m.actor, [&out, &m]() {
      if (m.metrics != nullptr) out.Merge(*m.metrics);
      if (m.busy != nullptr) out.*m.busy += m.actor->busy_ns();
    });
  }
  out.window_ns = exec_->Now() - window_start_;
  out.num_partitions = options_.num_partitions;
  return out;
}

void Cluster::Stop() {
  PARTDB_CHECK(started_);
  if (parallel_ != nullptr) {
    const bool drained = parallel_->WaitQuiescent(std::chrono::seconds(30));
    parallel_->Stop();
    PARTDB_CHECK(drained);
  } else {
    sim_.Run();
  }
  for (auto& p : partitions_) {
    PARTDB_CHECK(p->cc().Idle());
  }
}

}  // namespace partdb

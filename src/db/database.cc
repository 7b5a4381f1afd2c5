#include "db/database.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <string>

#include "cc/scheme_registry.h"
#include "common/logging.h"
#include "durability/log_format.h"

namespace partdb {

namespace {
/// Parallel-mode worker threads shared by the session ingress actors.
constexpr int kSessionWorkers = 2;

/// User plus system CPU time of this process so far.
double ProcessCpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}
}  // namespace

const char* DurabilityModeName(DurabilityMode m) {
  switch (m) {
    case DurabilityMode::kOff: return "off";
    case DurabilityMode::kAsync: return "async";
    case DurabilityMode::kGroupCommit: return "group_commit";
  }
  return "?";
}

std::unique_ptr<Database> Database::Open(DbOptions options) {
  PARTDB_CHECK(options.engine_factory != nullptr);
  PARTDB_CHECK(options.max_sessions >= 1);
  return std::unique_ptr<Database>(new Database(std::move(options)));
}

Database::Database(DbOptions options)
    : options_(std::move(options)), net_(options_.net), sim_exec_(&sim_, &net_) {
  for (ProcedureDescriptor& d : options_.procedures) {
    registry_.Register(std::move(d));
  }
  options_.procedures.clear();

  if (options_.durability != DurabilityMode::kOff) {
    // Command logging runs real I/O threads; the simulator has no place for
    // them (and no real clock to batch against).
    PARTDB_CHECK(options_.mode == RunMode::kParallel);
    PARTDB_CHECK(!options_.log_dir.empty());
  }

  // Resolve the scheme name up front: an unknown name fails here, before any
  // wiring, with the registered schemes listed.
  const CcSchemeRegistry::Entry& scheme = CcSchemeRegistry::Global().Get(options_.scheme);

  const int P = options_.num_partitions;
  PARTDB_CHECK(P >= 1);
  PARTDB_CHECK(options_.replication >= 1);

  // Node layout: coordinator 0, primaries [1, 1+P), backups afterwards,
  // session slots last.
  const NodeId coord_node = 0;
  topology_.coordinator = coord_node;
  topology_.durable_notices = options_.durability == DurabilityMode::kGroupCommit;
  for (int p = 0; p < P; ++p) topology_.partition_primary.push_back(coord_node + 1 + p);
  const int num_backups = P * (options_.replication - 1);
  const NodeId first_session_node = coord_node + 1 + P + num_backups;

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
      parallel_->MapNode(first_session_node + s, coord_worker + 1 + s % kSessionWorkers);
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
                                                 sink.get());
    part->InstallScheme(scheme.factory(part.get(), scheme_opts));
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
  coordinator_ = std::make_unique<CoordinatorActor>("coordinator", options_.cost, &registry_,
                                                    topology_.partition_primary,
                                                    topology_.durable_notices);
  coordinator_->Bind(exec_, coord_node);
  measured_.push_back({coordinator_.get(), nullptr, &Metrics::coord_busy_ns});

  if (options_.durability != DurabilityMode::kOff) {
    std::filesystem::create_directories(options_.log_dir);
    // Recovery runs before any worker thread starts: the engines are only
    // touched by the replay pool.
    RecoveryOptions ro;
    ro.dir = options_.log_dir;
    ro.num_partitions = P;
    ro.workers = options_.recovery_workers > 0 ? options_.recovery_workers : P;
    ro.registry = &registry_;
    recovery_report_ = RecoverDatabase(ro, [this](PartitionId p) -> Engine& { return engine(p); });
    if (!recovery_report_.ok) {
      std::fprintf(stderr, "partdb: recovery failed: %s\n", recovery_report_.error.c_str());
      PARTDB_CHECK(false);
    }

    PartitionLog::Config cfg;
    cfg.dir = options_.log_dir;
    cfg.num_partitions = P;
    cfg.window = Micros(options_.group_commit_window_us);
    for (ProcId id = 0; id < static_cast<ProcId>(registry_.size()); ++id) {
      cfg.procs.push_back(LogProcEntry{id, registry_.Get(id).name});
    }
    for (PartitionId p = 0; p < P; ++p) {
      cfg.partition = p;
      cfg.seed = recovery_report_.seeds[p];
      logs_.push_back(std::make_unique<PartitionLog>(cfg));
      // durable_notices is set exactly under group commit, when the
      // partition holds every reply until its log acks the record.
      partitions_[p]->InstallDurabilityLog(logs_[p].get(), topology_.durable_notices);
    }
  }

  // Session slots.
  ProcRouter router = [reg = &registry_](ProcId proc, const Payload& args) {
    return reg->Get(proc).route(args);
  };
  for (int i = 0; i < options_.max_sessions; ++i) {
    // Session slot i draws from client stream i (ClientStreamSeed), and
    // CreateSession hands slots out in ascending order, so a closed loop over
    // sessions replays the legacy bench clients' streams exactly.
    auto actor = std::make_unique<SessionActor>(
        "session-" + std::to_string(i), router, &registry_, topology_, scheme.caps, options_.cost,
        ClientStreamSeed(options_.seed, i));
    actor->Bind(exec_, first_session_node + i);
    measured_.push_back({actor.get(), std::make_unique<Metrics>(), nullptr});
    actor->set_metrics(measured_.back().metrics.get());
    actor->set_max_inflight(options_.max_inflight_per_session);
    session_actors_.push_back(std::move(actor));
  }
  for (int i = options_.max_sessions - 1; i >= 0; --i) free_slots_.push_back(i);

  if (parallel_ != nullptr) parallel_->Start();
  // Each writer reports its durable records to its partition only when the
  // partition holds replies on them.
  for (PartitionId p = 0; p < static_cast<PartitionId>(logs_.size()); ++p) {
    logs_[p]->Start(topology_.durable_notices ? exec_ : nullptr, topology_.partition_primary[p]);
  }
}

Database::~Database() { Close(); }

ProcId Database::proc(std::string_view name) const {
  const ProcId id = registry_.Find(name);
  PARTDB_CHECK(id != kInvalidProc);
  return id;
}

std::unique_ptr<Session> Database::CreateSession() {
  std::unique_ptr<Session> s = TryCreateSession();
  PARTDB_CHECK(s != nullptr);  // raise DbOptions::max_sessions
  return s;
}

std::unique_ptr<Session> Database::TryCreateSession() {
  MutexLock lock(mu_);
  PARTDB_CHECK(!closed_);
  if (free_slots_.empty()) return nullptr;
  const int slot = free_slots_.back();
  free_slots_.pop_back();
  return std::unique_ptr<Session>(new LocalSession(this, session_actors_[slot].get()));
}

void Database::ReleaseSession(SessionActor* actor) {
  MutexLock lock(mu_);
  for (size_t i = 0; i < session_actors_.size(); ++i) {
    if (session_actors_[i].get() == actor) {
      free_slots_.push_back(static_cast<int>(i));
      return;
    }
  }
  PARTDB_CHECK(false);  // not one of ours
}

void Database::RunOnOwner(const Actor* a, const std::function<void()>& fn) {
  if (parallel_ != nullptr) {
    parallel_->RunOnOwner(a->node_id(), fn);
  } else {
    fn();
  }
}

void Database::BeginMeasurement() {
  for (Measured& m : measured_) {
    RunOnOwner(m.actor, [&m]() {
      if (m.metrics != nullptr) m.metrics->Reset();
      m.actor->ResetBusy();
    });
  }
  window_start_ = exec_->Now();
  const ParallelRuntime::Stats rt = Stats().runtime;
  window_cost_ = {rt.mailbox_pushed, rt.mailbox_wakes, ProcessCpuSeconds()};
}

Metrics Database::EndMeasurement() {
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
  const ParallelRuntime::Stats rt = Stats().runtime;
  window_cost_ = {rt.mailbox_pushed - window_cost_.mailbox_pushed,
                  rt.mailbox_wakes - window_cost_.mailbox_wakes,
                  ProcessCpuSeconds() - window_cost_.cpu_s};
  return out;
}

Database::DbStats Database::Stats() const {
  DbStats out;
  if (parallel_ != nullptr) out.runtime = parallel_->GetStats();
  for (const auto& log : logs_) out.durability += log->GetStats();
  return out;
}

bool Database::Checkpoint() {
  PARTDB_CHECK(!logs_.empty());  // requires DbOptions::durability
  PARTDB_CHECK(options_.mode == RunMode::kParallel);
  for (const auto& log : logs_) {
    if (log->crashed()) return false;
  }
  // One partition at a time. Parking all at once can deadlock: an MP
  // admitted at one participant keeps it busy while another participant
  // parks the same MP. With one parked partition, an MP it admitted was sent
  // by the one coordinator ahead of any MP it parks, over FIFO links, so no
  // other participant queues it behind a parked one; under locking, where
  // sessions run 2PC, such a cross wait ends at the lock timeout.
  for (PartitionId p = 0; p < options_.num_partitions; ++p) {
    PartitionActor& pa = partition(p);
    PartitionLog* log = logs_[p].get();
    Engine& e = engine(p);
    CheckpointImage img;
    // Shared with the closure, so the worker may still be inside set_value
    // when this thread wakes and moves on.
    auto taken = std::make_shared<std::promise<void>>();
    std::future<void> done = taken->get_future();
    RunOnOwner(&pa, [&] {
      pa.RunAtIdlePoint([&, taken] {
        PARTDB_CHECK(e.SupportsCheckpoint());
        WireWriter w(&img.engine_state);
        e.SerializeState(w);
        log->CheckpointRotate(&img);
        taken->set_value();
      });
    });
    done.wait();
    log->InstallCheckpoint(img);
  }
  // Every partition rotated and has its new image durable: multi-partition
  // evidence captured two rotates ago is now checkpoint-covered at every
  // participant and can stop occupying memory and future checkpoints.
  for (const auto& log : logs_) log->DropCoveredMpHistory();
  return true;
}

void Database::AdvanceSim(Duration d) {
  PARTDB_CHECK(options_.mode == RunMode::kSimulated);
  sim_.RunUntil(sim_.Now() + d);
}

void Database::PumpSimUntil(const std::function<bool()>& done) {
  PARTDB_CHECK(options_.mode == RunMode::kSimulated);
  while (!done()) {
    PARTDB_CHECK(sim_.RunOne());  // empty queue: txn can never finish
  }
}

void Database::Close() {
  {
    MutexLock lock(mu_);
    if (closed_) return;
    closed_ = true;
  }
  // Submissions have ceased (sessions drain on destruction; any still-open
  // session must be idle by now). In parallel mode wait out stragglers and
  // in-flight work, then join the workers; the simulator runs them dry.
  if (parallel_ != nullptr) {
    for (auto& a : session_actors_) {
      PARTDB_CHECK(a->WaitDrained(std::chrono::seconds(30)));
    }
    const bool drained = parallel_->WaitQuiescent(std::chrono::seconds(30));
    parallel_->Stop();
    PARTDB_CHECK(drained);
  } else {
    sim_.Run();
  }
  for (auto& p : partitions_) {
    PARTDB_CHECK(p->cc().Idle());
  }
  for (auto& log : logs_) log->Shutdown();
  for (auto& a : session_actors_) {
    PARTDB_CHECK(a->outstanding() == 0);
  }
}

}  // namespace partdb

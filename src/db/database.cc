#include "db/database.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>

#include "common/logging.h"
#include "durability/log_format.h"

namespace partdb {

std::unique_ptr<Database> Database::Open(DbOptions options) {
  PARTDB_CHECK(options.engine_factory != nullptr);
  PARTDB_CHECK(options.max_sessions >= 1);
  return std::unique_ptr<Database>(new Database(std::move(options)));
}

Database::Database(DbOptions options) : options_(std::move(options)) {
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
  // cluster wiring, with the registered schemes listed.
  const CcSchemeCapabilities scheme_caps =
      CcSchemeRegistry::Global().Get(options_.scheme).caps;

  cluster_ = std::make_unique<Cluster>(options_, &registry_);

  if (options_.durability != DurabilityMode::kOff) {
    std::filesystem::create_directories(options_.log_dir);
    // Recovery runs before any worker thread starts: the engines are only
    // touched by the replay pool.
    RecoveryOptions ro;
    ro.dir = options_.log_dir;
    ro.num_partitions = options_.num_partitions;
    ro.workers =
        options_.recovery_workers > 0 ? options_.recovery_workers : options_.num_partitions;
    ro.registry = &registry_;
    recovery_report_ =
        RecoverDatabase(ro, [this](PartitionId p) -> Engine& { return cluster_->engine(p); });
    if (!recovery_report_.ok) {
      std::fprintf(stderr, "partdb: recovery failed: %s\n", recovery_report_.error.c_str());
      PARTDB_CHECK(false);
    }

    DurabilityManager::Options mo;
    mo.mode = options_.durability;
    mo.dir = options_.log_dir;
    mo.num_partitions = options_.num_partitions;
    mo.group_commit_window = Micros(options_.group_commit_window_us);
    mo.crash_after_n_commits = options_.durability_crash_after_n_commits;
    for (ProcId id = 0; id < static_cast<ProcId>(registry_.size()); ++id) {
      mo.procs.push_back(LogProcEntry{id, registry_.Get(id).name});
    }
    durability_ = std::make_unique<DurabilityManager>(std::move(mo), recovery_report_.seeds);
    for (PartitionId p = 0; p < options_.num_partitions; ++p) {
      cluster_->partition(p).InstallDurabilityLog(durability_->log(p),
                                                  durability_->holds_replies());
    }
  }

  ProcRouter router = [reg = &registry_](ProcId proc, const Payload& args) {
    return reg->Get(proc).route(args);
  };
  for (int i = 0; i < options_.max_sessions; ++i) {
    // Session slot i draws from client stream i (ClientStreamSeed), and
    // CreateSession hands slots out in ascending order, so a closed loop over
    // sessions replays the legacy bench clients' streams exactly.
    auto actor = std::make_unique<SessionActor>(
        "session-" + std::to_string(i), router, &registry_, cluster_->topology(),
        scheme_caps, options_.cost, ClientStreamSeed(options_.seed, i));
    actor->set_metrics(cluster_->BindSession(i, actor.get()));
    actor->set_max_inflight(options_.max_inflight_per_session);
    session_actors_.push_back(std::move(actor));
  }
  for (int i = options_.max_sessions - 1; i >= 0; --i) free_slots_.push_back(i);

  cluster_->Start();
  if (durability_ != nullptr) {
    durability_->Start(&cluster_->exec(), cluster_->topology().partition_primary);
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

void Database::BeginMeasurement() { cluster_->BeginWindow(); }

Metrics Database::EndMeasurement() { return cluster_->EndWindow(); }

Database::DbStats Database::Stats() const {
  DbStats out;
  ParallelRuntime* rt = cluster_->parallel_runtime();
  if (rt != nullptr) out.runtime = rt->GetStats();
  if (durability_ != nullptr) out.durability = durability_->GetStats();
  return out;
}

bool Database::Checkpoint() {
  PARTDB_CHECK(durability_ != nullptr);  // requires DbOptions::durability
  PARTDB_CHECK(options_.mode == RunMode::kParallel);
  if (durability_->crashed()) return false;
  // One partition at a time. Parking all at once can deadlock: an MP
  // admitted at one participant keeps it busy while another participant
  // parks the same MP. With one parked partition, an MP it admitted was sent
  // by the one coordinator ahead of any MP it parks, over FIFO links, so no
  // other participant queues it behind a parked one; under locking, where
  // sessions run 2PC, such a cross wait ends at the lock timeout.
  for (PartitionId p = 0; p < options_.num_partitions; ++p) {
    PartitionActor& pa = cluster_->partition(p);
    PartitionLog* log = durability_->log(p);
    Engine& e = cluster_->engine(p);
    CheckpointImage img;
    // Shared with the closure, so the worker may still be inside set_value
    // when this thread wakes and moves on.
    auto taken = std::make_shared<std::promise<void>>();
    std::future<void> done = taken->get_future();
    cluster_->parallel_runtime()->RunOnOwner(pa.node_id(), [&] {
      pa.RunAtIdlePoint([&, taken] {
        PARTDB_CHECK(e.SupportsCheckpoint());
        WireWriter w(&img.engine_state);
        e.SerializeState(w);
        log->CheckpointRotate(&img);
        taken->set_value();
      });
    });
    done.wait();
    log->InstallCheckpoint(img, options_.keep_truncated_log_segments);
  }
  // Every partition rotated and has its new image durable: multi-partition
  // evidence captured two rotates ago is now checkpoint-covered at every
  // participant and can stop occupying memory and future checkpoints.
  for (PartitionId p = 0; p < options_.num_partitions; ++p) {
    durability_->log(p)->DropCoveredMpHistory();
  }
  return true;
}

void Database::AdvanceSim(Duration d) {
  PARTDB_CHECK(options_.mode == RunMode::kSimulated);
  cluster_->sim().RunUntil(cluster_->sim().Now() + d);
}

void Database::PumpSimUntil(const std::function<bool()>& done) {
  PARTDB_CHECK(options_.mode == RunMode::kSimulated);
  while (!done()) {
    PARTDB_CHECK(cluster_->sim().RunOne());  // empty queue: txn can never finish
  }
}

void Database::Close() {
  {
    MutexLock lock(mu_);
    if (closed_) return;
    closed_ = true;
  }
  // Submissions have ceased (sessions drain on destruction; any still-open
  // session must be idle by now). In parallel mode wait out stragglers; the
  // simulator runs them dry in Stop.
  if (options_.mode == RunMode::kParallel) {
    for (auto& a : session_actors_) {
      PARTDB_CHECK(a->WaitDrained(std::chrono::seconds(30)));
    }
  }
  cluster_->Stop();
  if (durability_ != nullptr) durability_->Shutdown();
  for (auto& a : session_actors_) {
    PARTDB_CHECK(a->outstanding() == 0);
  }
}

}  // namespace partdb

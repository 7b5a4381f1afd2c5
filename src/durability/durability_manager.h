// DurabilityManager: the database-wide face of the durability tier. Owns one
// PartitionLog per partition, the completion-gating table that holds client
// callbacks until every participant's log record is fsynced (group commit),
// the deterministic crash-injection counter tests use to kill the log
// mid-stream, and the aggregated counters Database::Stats() surfaces.
//
// Both logging modes run the same writers at the same cadence (one
// write+fsync per batch window); they differ only in SealOrDefer, i.e.
// whether completions wait for the fsync.
#ifndef PARTDB_DURABILITY_DURABILITY_MANAGER_H_
#define PARTDB_DURABILITY_DURABILITY_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"
#include "durability/command_log.h"
#include "runtime/execution_context.h"

namespace partdb {

/// What "committed" means to the client (DbOptions::durability).
///  - kOff:         memory only, no log.
///  - kAsync:       every commit is logged and fsynced by the writer thread,
///                  one batch per group_commit_window, but completions do not
///                  wait for it — a crash may lose the acknowledged commits of
///                  about one window plus one fsync.
///  - kGroupCommit: completions are held until the commit's batch is durable
///                  on every participating partition's log.
enum class DurabilityMode { kOff, kAsync, kGroupCommit };

const char* DurabilityModeName(DurabilityMode m);

/// Aggregated log-writer counters (Database::Stats().durability).
struct DurabilityStats {
  uint64_t records = 0;
  uint64_t bytes_logged = 0;
  uint64_t batches = 0;
  uint64_t fsyncs = 0;
  /// Signals appends sent to parked log writers (edge-only: <= batches).
  uint64_t writer_wakes = 0;
  /// Completions that had to park waiting for their batch (group commit).
  uint64_t deferred_completions = 0;
  double avg_batch_size() const {
    return batches == 0 ? 0.0 : static_cast<double>(records) / static_cast<double>(batches);
  }
};

class DurabilityManager {
 public:
  struct Options {
    DurabilityMode mode = DurabilityMode::kOff;
    std::string dir;
    int num_partitions = 0;
    /// Batch window of every log writer, in both modes.
    Duration group_commit_window = 0;
    /// Crash injection: after this many records have been admitted across
    /// all partition logs, every later record is dropped and crashed() flips
    /// (0 = disabled). Used by the crash-restart tests.
    uint64_t crash_after_n_commits = 0;
    bool keep_truncated_segments = false;
    /// Proc table stamped into every segment header (id -> name, re-resolved
    /// by name at recovery).
    std::vector<LogProcEntry> procs;
  };

  /// Per-partition recovery seed for the new log incarnation.
  struct PartitionSeed {
    uint64_t next_seq = 1;
    uint64_t next_segment = 0;
    std::vector<TxnId> mp_history;
  };

  DurabilityManager(Options options, const std::vector<PartitionSeed>& seeds);
  ~DurabilityManager();
  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// Opens the logs and launches the writer threads. `exec` delivers the
  /// DurableNotice wake messages (must be the parallel runtime; it stays
  /// valid until Shutdown).
  void Start(ExecutionContext* exec);

  /// Final flush on every log, then joins the writers. Idempotent. Call with
  /// the partitions quiescent (no appends in flight).
  void Shutdown();

  PartitionLog* log(PartitionId p) { return logs_[static_cast<size_t>(p)].get(); }
  DurabilityMode mode() const { return options_.mode; }
  bool gating() const { return options_.mode == DurabilityMode::kGroupCommit; }

  /// Completion gate, called by the session actor for a committed txn with
  /// `need` participating partitions. Returns true when the commit is already
  /// durable everywhere (or gating is off / the injected crash fired — after
  /// a crash everything completes so the bench can wind down; the test
  /// separates genuinely-acked txns by checking crashed() in the callback).
  /// Returns false after registering the txn: a DurableNotice{txn} will be
  /// sent to node TxnClient(txn) once the last record fsyncs.
  bool SealOrDefer(TxnId txn, uint32_t need);

  /// True once crash injection has tripped: records stopped persisting and
  /// all gating is released.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  DurabilityStats GetStats() const;

  // Called by the PartitionLog writer threads.

  /// Crash-injection budget: of `n` records about to be written, how many may
  /// actually persist. Returns n when injection is disabled.
  uint64_t AdmitRecords(uint64_t n);
  /// Marks one fsynced record per entry and wakes completed waiters.
  void OnRecordsDurable(const std::vector<TxnId>& txns);
  /// Flips crashed() and releases every present and future waiter. The flag
  /// is published before any dropped record's waiter is woken, so a
  /// completion callback observing crashed() == false was genuinely durable.
  void TriggerCrash();

 private:
  struct Gate {
    uint32_t durable = 0;
    uint32_t need = 0;  // 0 until the session seals
  };

  void Wake(TxnId txn);

  Options options_;
  std::vector<std::unique_ptr<PartitionLog>> logs_;
  ExecutionContext* exec_ = nullptr;
  std::atomic<bool> crashed_{false};
  std::atomic<uint64_t> admitted_records_{0};

  mutable Mutex mu_;
  std::unordered_map<TxnId, Gate> gates_ PARTDB_GUARDED_BY(mu_);
  uint64_t deferred_completions_ PARTDB_GUARDED_BY(mu_) = 0;
  bool released_all_ PARTDB_GUARDED_BY(mu_) = false;
  bool started_ = false;
};

}  // namespace partdb

#endif  // PARTDB_DURABILITY_DURABILITY_MANAGER_H_

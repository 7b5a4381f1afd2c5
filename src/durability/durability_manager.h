// DurabilityManager: the database-wide face of the durability tier. Owns one
// PartitionLog per partition, the deterministic crash-injection counter tests
// use to kill the log mid-stream, and the aggregated counters
// Database::Stats() surfaces.
//
// Both logging modes run the same writers: each batch stays open for up to
// the window, counted from when the writer picks it up (after the previous
// write+fsync), then takes one write+fsync. Under group commit each writer
// also reports its durable records to its partition, which holds replies
// until the backups and the log have acked them (PartitionActor), and the
// partition closes its open batch whenever its worker goes idle, so the
// window only caps batching under load. Async never closes a batch early.
#ifndef PARTDB_DURABILITY_DURABILITY_MANAGER_H_
#define PARTDB_DURABILITY_DURABILITY_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "durability/command_log.h"
#include "runtime/execution_context.h"

namespace partdb {

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

class DurabilityManager {
 public:
  struct Options {
    DurabilityMode mode = DurabilityMode::kOff;
    std::string dir;
    int num_partitions = 0;
    /// Longest batch window of every log writer, in both modes.
    Duration group_commit_window = 0;
    /// Crash injection: after this many records have been admitted across
    /// all partition logs, every later record is dropped and crashed() flips
    /// (0 = disabled). Used by the crash-restart tests.
    uint64_t crash_after_n_commits = 0;
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

  /// Opens the logs and launches the writer threads. When holds_replies(),
  /// writer p reports its durable records to node `partition_nodes[p]`
  /// through `exec` (the parallel runtime; it must stay valid until
  /// Shutdown).
  void Start(ExecutionContext* exec, const std::vector<NodeId>& partition_nodes);

  /// Final flush on every log, then joins the writers. Idempotent. Call with
  /// the partitions quiescent (no appends in flight).
  void Shutdown();

  PartitionLog* log(PartitionId p) { return logs_[static_cast<size_t>(p)].get(); }
  /// Group commit: partitions hold every reply until the log acks its record.
  bool holds_replies() const { return options_.mode == DurabilityMode::kGroupCommit; }

  /// True once crash injection has tripped: records stopped persisting, and
  /// the writers report them anyway so every transaction still completes (a
  /// test separates genuinely-acked ones by checking crashed() in the
  /// completion callback).
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  DurabilityStats GetStats() const;

  // Called by the PartitionLog writer threads.

  /// Crash-injection budget: of `n` records about to be written, how many may
  /// actually persist. Returns n when injection is disabled.
  uint64_t AdmitRecords(uint64_t n);
  /// Flips crashed(). A writer calls it before it reports any dropped record.
  void TriggerCrash() { crashed_.store(true, std::memory_order_release); }

 private:
  Options options_;
  std::vector<std::unique_ptr<PartitionLog>> logs_;
  std::atomic<bool> crashed_{false};
  std::atomic<uint64_t> admitted_records_{0};
};

}  // namespace partdb

#endif  // PARTDB_DURABILITY_DURABILITY_MANAGER_H_

// PartitionLog: one partition's command log — an append path called on the
// partition's worker thread at commit time, and a dedicated log-writer thread
// that batches appends and pays the write+fsync off the critical path.
// Database owns one per partition; a test can build one on its own.
//
// Append frames each record once, in place, with the one record encoder
// (AppendLogRecord, log_format.h): it serializes the payloads straight into
// the pending buffer the writer swaps out (both buffers keep
// their capacity, so the steady state allocates nothing) and signals the
// writer only when it is parked. The writer holds a batch open for up to the
// window, counted from when it picks the batch up (after the previous
// write+fsync, so under load records wait for that fsync and then the
// window), so concurrent commits share one write+fsync. CloseBatch ends the
// wait early once every pending record is covered by a close: under group
// commit the partition closes whenever its worker goes idle, so a lone
// commit waits only for its own write+fsync, while async never closes and
// keeps the full window. Under group commit the writer ends every batch with
// one LogDurable{through_seq} message to its partition, which holds each
// reply until both its backups and this log have acked the record
// (PartitionActor); otherwise the class only moves bytes.
#ifndef PARTDB_DURABILITY_COMMAND_LOG_H_
#define PARTDB_DURABILITY_COMMAND_LOG_H_

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"
#include "durability/log_format.h"
#include "msg/message.h"

namespace partdb {

class ExecutionContext;

/// Log-writer counters: one partition's (PartitionLog::GetStats), or their
/// sum over every partition (Database::Stats().durability).
struct DurabilityStats {
  uint64_t records = 0;
  uint64_t bytes_logged = 0;
  uint64_t batches = 0;
  uint64_t fsyncs = 0;
  /// Signals appends sent to parked log writers (edge-only: <= batches).
  uint64_t writer_wakes = 0;
  /// Records the writers reported durable to a partition holding replies on
  /// them in LogDurable messages (every record under group commit, 0 under
  /// async).
  uint64_t deferred_completions = 0;
  /// Batches written before their window ended, because CloseBatch covered
  /// every pending record (a partition closes its batch on going idle only
  /// under group commit, so 0 under async).
  uint64_t early_closes = 0;
  double avg_batch_size() const {
    return batches == 0 ? 0.0 : static_cast<double>(records) / static_cast<double>(batches);
  }
  DurabilityStats& operator+=(const DurabilityStats& o) {
    records += o.records;
    bytes_logged += o.bytes_logged;
    batches += o.batches;
    fsyncs += o.fsyncs;
    writer_wakes += o.writer_wakes;
    deferred_completions += o.deferred_completions;
    early_closes += o.early_closes;
    return *this;
  }
};

/// Where a partition's log incarnation resumes: RecoverDatabase returns one
/// per partition, and PartitionLog::Config carries it (the defaults are a
/// fresh log directory).
struct LogSeed {
  /// The next commit sequence to assign.
  uint64_t next_seq = 1;
  /// First segment index to create (recovery leaves old segments in place
  /// and appends to a fresh one, so torn tails never need repair in place).
  uint64_t next_segment = 0;
  /// Multi-partition txn ids recovered at this partition (from the
  /// recovered checkpoint + the log records recovery did not skip as
  /// incomplete; checkpoints persist the list for the
  /// recovery completeness rule until every participant's checkpoint covers
  /// the ids — see PartitionLog::DropCoveredMpHistory).
  std::vector<TxnId> mp_history;
};

class PartitionLog {
 public:
  struct Config {
    std::string dir;
    PartitionId partition = -1;
    int num_partitions = 0;
    /// Batch window: the longest the writer collects appends into a batch,
    /// counted from when it picks the batch up, before writing and fsyncing
    /// it; CloseBatch cuts it short (0 = write as soon as a record is
    /// pending).
    Duration window = 0;
    /// Proc table written into every segment header.
    std::vector<LogProcEntry> procs;
    LogSeed seed;
  };

  explicit PartitionLog(Config config);
  ~PartitionLog();
  PartitionLog(const PartitionLog&) = delete;
  PartitionLog& operator=(const PartitionLog&) = delete;

  /// Opens the first segment and launches the writer thread. With a non-null
  /// `report_to` the writer sends node `partition` one LogDurable through it
  /// after every batch (group commit); `report_to` must outlive Shutdown.
  void Start(ExecutionContext* report_to = nullptr, NodeId partition = kInvalidNode);

  /// Frames one committed invocation straight into the pending buffer and
  /// wakes the writer if it is parked. Called on the owning partition's
  /// worker thread only. Returns the assigned commit sequence.
  uint64_t Append(const CommitRecord& committed);

  /// Marks every record appended so far as the end of its batch: once all
  /// pending records are covered by a close, the writer stops waiting for
  /// the window and writes them. Records appended later keep the next batch
  /// open until its window ends or the next close. Called on the owning
  /// partition's worker thread only.
  void CloseBatch();

  /// Checkpoint support, called on the owning partition's worker at a point
  /// between transactions (so no append can race): flushes, rotates to a
  /// fresh segment, and fills `img`'s header, the sequence it covers and the
  /// multi-partition history it must persist; the caller serializes the
  /// engine into `img->engine_state`. Covered segments are NOT deleted here:
  /// InstallCheckpoint does that once the image is durable.
  void CheckpointRotate(CheckpointImage* img);

  /// Makes the image from the last CheckpointRotate durable: writes a temp
  /// file, fsyncs it, renames it to its CheckpointPath and fsyncs the
  /// directory. Only then unlinks the segments the rotate covered and this
  /// partition's older images: deleting first would lose acknowledged
  /// commits if the process died before the image landed. Callable from any
  /// thread.
  void InstallCheckpoint(const CheckpointImage& img);

  /// Drops multi-partition history that every participant's checkpoint now
  /// covers. Call only after a checkpoint round in which EVERY partition
  /// rotated and got its image durable: ids captured by this log's
  /// second-most-recent rotate are then covered by every participant's
  /// latest checkpoint (an MP txn is appended at each participant before
  /// that participant's scheme reports Idle() again, so a full round of
  /// idle-point rotates bounds the append skew to one round), and the
  /// evidence can never be needed by recovery again.
  void DropCoveredMpHistory();

  /// Final flush + writer join. Idempotent; the destructor calls it.
  void Shutdown();

  /// Test-only: simulates a crash of this log. The writer neither writes nor
  /// fsyncs any batch it picks up after the call; a batch it is already
  /// writing still lands. It still reports every dropped batch, so every
  /// transaction completes. A test that sets its own flag before calling
  /// Crash can tell durable replies apart: a reply whose callback saw the
  /// flag unset was durable. Callable from any thread.
  void Crash();
  /// True once Crash was called.
  bool crashed() const;

  DurabilityStats GetStats() const;
  PartitionId partition() const { return config_.partition; }

  /// Path of segment `index` for `partition` under `dir` (recovery scans
  /// with the same naming, LogFileName).
  static std::string SegmentPath(const std::string& dir, PartitionId p, uint64_t index);
  static std::string CheckpointPath(const std::string& dir, PartitionId p, uint64_t index);

 private:
  /// fsyncs the directory itself: fsync(file_fd) persists the bytes but not
  /// the directory entry, so a freshly created segment or a renamed
  /// checkpoint is not durable until its directory is synced too.
  static void SyncDir(const std::string& dir);
  void WriterLoop();
  void OpenSegment() PARTDB_REQUIRES(mu_);
  /// Sends the partition LogDurable{through_seq} (no-op without a report target).
  void ReportDurable(uint64_t through_seq);

  Config config_;
  // Set by Start before the writer launches; read by the writer only.
  ExecutionContext* report_to_ = nullptr;
  NodeId partition_node_ = kInvalidNode;

  mutable Mutex mu_;
  CondVar work_cv_;   // parked writer <- first append, Shutdown
  CondVar flush_cv_;  // writer -> rotate waiters

  std::string pending_bytes_ PARTDB_GUARDED_BY(mu_);
  /// Records framed into pending_bytes_.
  uint64_t pending_records_ PARTDB_GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ PARTDB_GUARDED_BY(mu_) = 1;
  /// Last sequence covered by a CloseBatch (0 = none yet).
  uint64_t closed_through_ PARTDB_GUARDED_BY(mu_) = 0;
  uint64_t segment_index_ PARTDB_GUARDED_BY(mu_) = 0;
  /// Last segment the most recent CheckpointRotate covered.
  uint64_t covered_segment_ PARTDB_GUARDED_BY(mu_) = 0;
  int fd_ PARTDB_GUARDED_BY(mu_) = -1;  // writer touches it only while io_in_progress_
  bool io_in_progress_ PARTDB_GUARDED_BY(mu_) = false;
  /// The writer is waiting for work: the next Append signals it and clears
  /// the flag, so only the empty-to-nonempty edge costs a signal.
  bool writer_parked_ PARTDB_GUARDED_BY(mu_) = false;
  bool stop_ PARTDB_GUARDED_BY(mu_) = false;
  bool crashed_ PARTDB_GUARDED_BY(mu_) = false;  // Crash() was called: drop writes
  /// Multi-partition ids by age, so the history stays bounded instead of
  /// growing for the lifetime of the log: epoch = appended since the last
  /// rotate; young = captured by the most recent rotate (a participant may
  /// have appended the same txn just after its own rotate in that round, so
  /// its evidence may not be checkpoint-covered everywhere yet); old =
  /// captured at least two rotates ago, freed by DropCoveredMpHistory once a
  /// fully-successful checkpoint round proves every participant covers them.
  /// Every rotate persists old + young + epoch into the checkpoint image.
  std::vector<TxnId> mp_epoch_ PARTDB_GUARDED_BY(mu_);
  std::vector<TxnId> mp_young_ PARTDB_GUARDED_BY(mu_);
  std::vector<TxnId> mp_old_ PARTDB_GUARDED_BY(mu_);
  DurabilityStats stats_ PARTDB_GUARDED_BY(mu_);

  std::thread writer_;
};

}  // namespace partdb

#endif  // PARTDB_DURABILITY_COMMAND_LOG_H_

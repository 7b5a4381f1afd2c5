// Multiversion concurrency control with per-partition timestamp ordering.
// The genuinely different point on the scheme map (Larson et al.): while a
// multi-partition transaction stalls in its 2PC window, single-partition
// transactions — read-only ones always — keep executing against a consistent
// committed snapshot instead of queueing behind it (blocking) or executing on
// uncommitted state and risking cascades (speculation).
//
// Mechanics. At most one multi-partition transaction is pending per
// partition; further MPs queue FIFO, so the coordinator's global order is
// preserved. The pending MP's writes are installed in the store as its
// pending version chain: the transaction's UndoBuffer with redo capture
// enabled, one {record, before-image, after-image} entry per write. An
// arriving single-partition transaction is classified against the pending
// MP's declared access set (Engine::LockSet, the same source OCC tracks):
//
//  - its writes intersect the MP's access set → it queues until the decision
//    (the only waiting case; never hits read-only transactions),
//  - it touches none of the MP's written records → it executes directly on
//    current state (fast path: the pending versions are invisible to it),
//  - it reads records the MP wrote → snapshot read: the pending version
//    chain is lifted off the store (exposing the committed snapshot — the
//    exact replay-prefix state at the partition's current commit timestamp),
//    the transaction executes and commits, and the pending versions are
//    reinstalled.
//
// Commit order equals the commit-log order: snapshot/direct SPs serialize
// before the pending MP, which is exactly where the replay checker puts
// them. On commit the pending versions become the committed state (the chain
// is discarded — eager GC; nothing retains old versions beyond the 2PC
// window). On abort the chain is rolled back, unlinking the versions.
#ifndef PARTDB_CC_MVCC_H_
#define PARTDB_CC_MVCC_H_

#include <deque>
#include <optional>
#include <unordered_set>

#include "cc/cc_scheme.h"

namespace partdb {

class MvccCc : public CcScheme {
 public:
  explicit MvccCc(PartitionExec* part) : part_(part) {}

  void OnFragment(FragmentRequest frag) override;
  void OnDecision(const DecisionMessage& d) override;
  bool Idle() const override { return !pending_.has_value() && waiting_.empty(); }

  /// Version records currently retained (the pending MP's chain; 0 when no
  /// MP is in flight). Bounded by one transaction's write count — the GC
  /// invariant the tests pin.
  size_t retained_version_records() const {
    return pending_.has_value() ? pending_->versions.size() : 0;
  }

  /// Per-partition commit timestamp: the number of transactions committed
  /// here; snapshot reads execute at this timestamp.
  uint64_t commit_ts() const { return commit_ts_; }

 private:
  struct PendingMp {
    CommitRecord rec;
    /// Pending version chain: undo (before-image) + redo (after-image) per
    /// written record, in write order.
    UndoBuffer versions;
    bool finished = false;         // last fragment executed (vote sent)
    bool aborted_locally = false;  // user abort during a fragment
    /// Declared access set (lock ids), accumulated over executed rounds.
    std::unordered_set<uint64_t> accesses;
    std::unordered_set<uint64_t> writes;  // exclusive subset of `accesses`
  };

  /// Runs and commits a single-partition transaction. `on_snapshot` lifts
  /// the pending MP's versions around the execution; without it this is
  /// blocking's single-partition execution (no version machinery).
  void ExecuteSp(FragmentRequest& f, bool on_snapshot = false);
  void StartMp(FragmentRequest& f);
  void ContinueMp(FragmentRequest& f);
  /// Folds the fragment's declared lock set into the pending MP's access
  /// sets (charged like lock-manager work, as OCC charges its tracking).
  void AccumulateMpAccess(const FragmentRequest& f);
  /// Classifies an SP against the pending MP: does it write into the MP's
  /// access set (must wait), and does it touch records the MP wrote (needs
  /// the snapshot)?
  void ClassifySp(const FragmentRequest& f, bool* writes_conflict, bool* needs_snapshot);
  void Drain();

  PartitionExec* part_;
  std::optional<PendingMp> pending_;
  /// Queued multi-partition transactions (FIFO behind the pending one) and
  /// single-partition writers stalled on a conflict.
  std::deque<FragmentRequest> waiting_;
  uint64_t commit_ts_ = 0;
  uint32_t epoch_ = 0;  // aborts processed (see FragmentResponse::epoch)
};

}  // namespace partdb

#endif  // PARTDB_CC_MVCC_H_

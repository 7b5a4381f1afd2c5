// The FIFO queue executor behind four registered schemes: blocking (§4.1,
// Fig. 2), speculation (§4.2, Fig. 3), OCC (§5.7) and mvcc. Transactions
// execute in arrival order; a multi-partition (MP) transaction heads the
// uncommitted queue until its 2PC decision arrives. Two policies, fixed per
// registrant, say what happens during that stall:
//
//  * What may run behind a finished, undecided MP (RunBehind): nothing
//    (blocking), single-partition (SP) transactions (local speculation,
//    §4.2.1), or everything (speculation, OCC). Speculated work runs with
//    undo buffers. Speculated SP results are buffered and released when every
//    earlier transaction commits (§4.2.1); speculated MP results are sent at
//    once, tagged with a dependency on the preceding MP, because the single
//    central coordinator can cascade the outcome (§4.2.2).
//
//    kSnapshot (mvcc, after Larson et al.) runs nothing behind the head: MPs
//    queue until the decision. An arriving SP is classified against the
//    head's access set instead, finished or not, and may run *before* it in
//    serialization order. An SP that writes none of the head's accesses
//    commits and replies at once; if it touches the head's writes it runs on
//    the committed snapshot (the head's undo buffer, with redo capture, is
//    lifted off the store around it and reinstalled). An SP that writes into
//    the head's accesses waits for the decision. Only a decision drains the
//    queue: the head's access set only grows, so a queued writer still
//    conflicts, and classifying it again would charge its lock work twice.
//  * What an MP abort undoes (AbortUndoes): everything behind the head
//    (speculation assumes everything conflicts), or only the transactions
//    whose access sets meet the written keys of the head and of earlier
//    invalidated transactions (OCC validation). Validation and kSnapshot
//    track each transaction's access set (Engine::LockSet, charged as lock
//    work); validation survivors stay queued and resend their MP votes under
//    the new epoch.
//
// Undone transactions are rolled back newest first and re-queued in their
// original order for re-execution.
#ifndef PARTDB_CC_SPECULATIVE_H_
#define PARTDB_CC_SPECULATIVE_H_

#include <deque>
#include <memory>
#include <vector>

#include "cc/cc_scheme.h"

namespace partdb {

class SpeculativeCc : public CcScheme {
 public:
  /// What may execute behind a finished MP awaiting its 2PC decision
  /// (kSnapshot: nothing, but an SP may run before the head; see above).
  enum class RunBehind { kNothing, kSinglePartition, kEverything, kSnapshot };
  /// What an abort decision for the head MP undoes.
  enum class AbortUndoes { kEverything, kConflicting };

  SpeculativeCc(PartitionExec* part, RunBehind run_behind, AbortUndoes abort_undoes)
      : part_(part),
        run_behind_(run_behind),
        validate_(abort_undoes == AbortUndoes::kConflicting),
        track_access_(validate_ || run_behind == RunBehind::kSnapshot) {}

  void OnFragment(FragmentRequest frag) override;
  void OnDecision(const DecisionMessage& d) override;
  bool Idle() const override { return uncommitted_.empty() && unexecuted_.empty(); }

 private:
  struct Txn {
    CommitRecord rec;
    NodeId coord = kInvalidNode;
    std::vector<FragmentRequest> frags;  // executed fragments (for requeue)
    UndoBuffer undo;
    bool finished = false;         // executed its last local fragment
    bool aborted_locally = false;  // user abort during execution
    bool undo_applied = false;     // rollback already performed (SP self-abort)
    ExecResult held;               // buffered result of a speculated SP
    // The access set (lock ids double as item ids) under validation and
    // kSnapshot; the last response sent, resent revalidated if the txn
    // survives an abort (validation only).
    std::vector<uint64_t> reads;
    std::vector<uint64_t> writes;
    FragmentResponse last_response;
  };
  using TxnPtr = std::unique_ptr<Txn>;

  /// Txn structs are recycled through a freelist: a speculation burst churns
  /// one per transaction, and the recycled structs keep their frags /
  /// round_inputs / undo / access-set capacities, so steady-state speculation
  /// allocates no bookkeeping at all. NewTxn starts one for `f`'s txn.
  TxnPtr NewTxn(const FragmentRequest& f);
  void RecycleTxn(TxnPtr t);

  bool MayRunBehind(const FragmentRequest& f) const;
  void ExecuteFresh(FragmentRequest& f);  // uncommitted queue empty
  /// Executes and answers SP `f` outside the queue. `lift`, when non-null, is
  /// the head's undo buffer, lifted around the execution (snapshot read).
  void ExecuteSp(const FragmentRequest& f, UndoBuffer* lift = nullptr);
  /// kSnapshot: runs SP `f` ahead of the head MP and returns true, unless
  /// `f` writes into the head's access set (then it must wait: false).
  bool RunBeforeHead(const FragmentRequest& f);
  void SpeculateSp(FragmentRequest& f);
  void SpeculateMp(FragmentRequest& f);
  void ContinueTail(FragmentRequest& f);
  void RunMpFragment(Txn& t, FragmentRequest& f, TxnId dep);
  /// Folds `f`'s declared lock set into `t`'s access set (validation and
  /// kSnapshot only).
  void TrackAccess(Txn& t, const FragmentRequest& f);
  void RollBack(Txn& t);  // once: a self-aborted SP was rolled back already
  void AbortHead();
  void DrainQueue();
  void ReleaseCommittedSp();
  TxnId LastMpId() const;  // most recent MP txn in the uncommitted queue

  PartitionExec* part_;
  RunBehind run_behind_;
  bool validate_;      // an abort undoes only conflicting transactions
  bool track_access_;  // Txn::reads/writes are kept
  std::deque<FragmentRequest> unexecuted_;
  std::deque<TxnPtr> uncommitted_;  // head is the non-speculative transaction
  std::vector<TxnPtr> txn_pool_;    // recycled Txn structs (bounded)
  uint32_t epoch_ = 0;              // abort decisions processed
};

}  // namespace partdb

#endif  // PARTDB_CC_SPECULATIVE_H_

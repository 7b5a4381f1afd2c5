// The FIFO queue executor behind three registered schemes: blocking (§4.1,
// Fig. 2), speculation (§4.2, Fig. 3) and OCC (§5.7). Transactions execute
// in arrival order; a multi-partition (MP) transaction heads the uncommitted
// queue until its 2PC decision arrives. Two policies, fixed per registrant,
// say what happens during that stall:
//
//  * What may run behind a finished, undecided MP (RunBehind): nothing
//    (blocking), single-partition (SP) transactions (local speculation,
//    §4.2.1), or everything (speculation, OCC). Speculated work runs with
//    undo buffers. Speculated SP results are buffered and released when every
//    earlier transaction commits (§4.2.1); speculated MP results are sent at
//    once, tagged with a dependency on the preceding MP, because the single
//    central coordinator can cascade the outcome (§4.2.2).
//  * What an MP abort undoes (AbortUndoes): everything behind the head
//    (speculation assumes everything conflicts), or only the transactions
//    whose access sets meet the written keys of the head and of earlier
//    invalidated transactions (OCC validation). Validation tracks each
//    transaction's access set (Engine::LockSet, charged as lock work); the
//    survivors stay queued and resend their MP votes under the new epoch.
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
  /// What may execute behind a finished MP awaiting its 2PC decision.
  enum class RunBehind { kNothing, kSinglePartition, kEverything };
  /// What an abort decision for the head MP undoes.
  enum class AbortUndoes { kEverything, kConflicting };

  SpeculativeCc(PartitionExec* part, RunBehind run_behind, AbortUndoes abort_undoes)
      : part_(part),
        run_behind_(run_behind),
        validate_(abort_undoes == AbortUndoes::kConflicting) {}

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
    // Validation only: the access set (lock ids double as item ids) and the
    // last response sent, resent revalidated if the txn survives an abort.
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
  void SpeculateSp(FragmentRequest& f);
  void SpeculateMp(FragmentRequest& f);
  void ContinueTail(FragmentRequest& f);
  void RunMpFragment(Txn& t, FragmentRequest& f, TxnId dep);
  /// Folds `f`'s declared lock set into `t`'s access set (validation only).
  void TrackAccess(Txn& t, const FragmentRequest& f);
  void RollBack(Txn& t);  // once: a self-aborted SP was rolled back already
  void AbortHead();
  void DrainQueue();
  void ReleaseCommittedSp();
  TxnId LastMpId() const;  // most recent MP txn in the uncommitted queue

  PartitionExec* part_;
  RunBehind run_behind_;
  bool validate_;  // an abort undoes only conflicting transactions
  std::deque<FragmentRequest> unexecuted_;
  std::deque<TxnPtr> uncommitted_;  // head is the non-speculative transaction
  std::vector<TxnPtr> txn_pool_;    // recycled Txn structs (bounded)
  uint32_t epoch_ = 0;              // abort decisions processed
};

}  // namespace partdb

#endif  // PARTDB_CC_SPECULATIVE_H_

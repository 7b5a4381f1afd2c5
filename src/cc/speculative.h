// Speculative concurrency control (paper §4.2, Fig. 3). Once the active
// multi-partition transaction has executed its last local fragment, queued
// transactions run speculatively with undo buffers:
//   * speculated single-partition results are buffered locally and released
//     when every earlier transaction commits (§4.2.1);
//   * speculated multi-partition results are sent immediately, tagged with a
//     dependency on the preceding multi-partition transaction, because the
//     single central coordinator can cascade the outcome (§4.2.2).
// An abort rolls back every speculated transaction (newest first) and
// re-queues them for re-execution: speculation assumes everything conflicts.
#ifndef PARTDB_CC_SPECULATIVE_H_
#define PARTDB_CC_SPECULATIVE_H_

#include <deque>
#include <memory>
#include <vector>

#include "cc/cc_scheme.h"

namespace partdb {

class SpeculativeCc : public CcScheme {
 public:
  /// `speculate_mp=false` restricts the scheme to local speculation
  /// (§4.2.1): single-partition transactions are speculated with buffered
  /// results, but multi-partition transactions wait for the head to commit.
  explicit SpeculativeCc(PartitionExec* part, bool speculate_mp = true)
      : part_(part), speculate_mp_(speculate_mp) {}

  void OnFragment(FragmentRequest frag) override;
  void OnDecision(const DecisionMessage& d) override;
  bool Idle() const override { return uncommitted_.empty() && unexecuted_.empty(); }

  size_t uncommitted_depth() const { return uncommitted_.size(); }
  size_t unexecuted_depth() const { return unexecuted_.size(); }

 private:
  struct Txn {
    CommitRecord rec;
    NodeId coord = kInvalidNode;
    std::vector<FragmentRequest> frags;  // executed fragments (for requeue)
    UndoBuffer undo;
    bool finished = false;         // executed its last local fragment
    bool aborted_locally = false;  // user abort during execution
    bool undo_applied = false;     // rollback already performed (SP self-abort)
    ClientResponse held;           // buffered result of a speculated SP
  };
  using TxnPtr = std::unique_ptr<Txn>;

  /// Txn structs are recycled through a freelist: a speculation burst churns
  /// one per transaction, and the recycled structs keep their frags /
  /// round_inputs / undo vector capacities, so steady-state speculation
  /// allocates no bookkeeping at all. NewTxn starts one for `f`'s txn.
  TxnPtr NewTxn(const FragmentRequest& f);
  void RecycleTxn(TxnPtr t);

  void ExecuteFresh(FragmentRequest& f);  // uncommitted queue empty
  void SpeculateSp(FragmentRequest& f);
  void SpeculateMp(FragmentRequest& f);
  void ContinueTail(FragmentRequest& f);
  void RunMpFragment(Txn& t, FragmentRequest& f, TxnId dep);
  void DrainQueue();
  void ReleaseCommittedSp();
  TxnId LastMpId() const;  // most recent MP txn in the uncommitted queue

  PartitionExec* part_;
  bool speculate_mp_;
  std::deque<FragmentRequest> unexecuted_;
  std::deque<TxnPtr> uncommitted_;  // head is the non-speculative transaction
  std::vector<TxnPtr> txn_pool_;    // recycled Txn structs (bounded)
  uint32_t epoch_ = 0;              // abort decisions processed
};

}  // namespace partdb

#endif  // PARTDB_CC_SPECULATIVE_H_

// Optimistic concurrency control (paper §5.7, where the authors report
// "initial results" and a hypothesis: OCC performs like their lightweight
// locking because both pay for read/write-set tracking). Structure follows
// the speculative scheme, but each optimistic transaction records its access
// set; when the head aborts, only transactions whose access sets intersect
// the written keys of invalidated predecessors are undone and re-executed —
// unaffected transactions survive, resending their votes under the new
// epoch. Tracking and validation are charged like lock-manager work.
#ifndef PARTDB_CC_OCC_H_
#define PARTDB_CC_OCC_H_

#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "cc/cc_scheme.h"

namespace partdb {

class OccCc : public CcScheme {
 public:
  explicit OccCc(PartitionExec* part) : part_(part) {}

  void OnFragment(FragmentRequest frag) override;
  void OnDecision(const DecisionMessage& d) override;
  bool Idle() const override { return uncommitted_.empty() && unexecuted_.empty(); }

 private:
  struct Txn {
    CommitRecord rec;
    NodeId coord = kInvalidNode;
    std::vector<FragmentRequest> frags;
    UndoBuffer undo;
    bool finished = false;
    bool aborted_locally = false;
    bool undo_applied = false;
    ClientResponse held;  // buffered result of a speculated SP
    // Access tracking (lock ids double as item ids).
    std::vector<uint64_t> reads;
    std::vector<uint64_t> writes;
    // Last vote sent, for cheap revalidated resends after an abort.
    FragmentResponse last_response;
    bool has_response = false;
  };
  using TxnPtr = std::unique_ptr<Txn>;

  /// A Txn for `f`'s transaction, with its access tracked.
  TxnPtr NewTxn(const FragmentRequest& f);
  void ExecuteFresh(FragmentRequest& f);
  void SpeculateSp(FragmentRequest& f);
  void SpeculateMp(FragmentRequest& f);
  void ContinueTail(FragmentRequest& f);
  void RunMpFragment(Txn& t, FragmentRequest& f, TxnId dep);
  void TrackAccess(Txn* t, const FragmentRequest& f);
  void DrainQueue();
  void ReleaseCommittedSp();
  TxnId LastMpId() const;

  PartitionExec* part_;
  std::deque<FragmentRequest> unexecuted_;
  std::deque<TxnPtr> uncommitted_;
  uint32_t epoch_ = 0;
};

}  // namespace partdb

#endif  // PARTDB_CC_OCC_H_

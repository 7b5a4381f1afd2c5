// Locking concurrency control (paper §4.3): strict two-phase locking run by a
// single thread (no latching). Single-partition transactions bypass locks
// entirely while the partition has no active transactions. Lock sets are
// derived from procedure arguments and acquired incrementally in access
// order, so local deadlocks (resolved by waits-for cycle detection, SP
// victims preferred) and distributed deadlocks (resolved by timeout) both
// occur as in the paper. Multi-partition transactions are coordinated by the
// client library directly — no central coordinator. Locked transactions
// live in a recycled TxnTable, so a steady workload reuses their lock plans,
// held lists and undo logs instead of allocating them per transaction.
#ifndef PARTDB_CC_LOCKING_H_
#define PARTDB_CC_LOCKING_H_

#include <vector>

#include "cc/cc_scheme.h"
#include "common/txn_table.h"
#include "engine/lock_manager.h"

namespace partdb {

class LockingCc : public CcScheme {
 public:
  /// `force_locks=true` disables the no-lock fast path, so every transaction
  /// acquires locks (the §5.1 remark: with forced locks, blocking beats
  /// locking below ~6% multi-partition transactions).
  explicit LockingCc(PartitionExec* part, bool force_locks = false)
      : part_(part), force_locks_(force_locks) {}

  void OnFragment(FragmentRequest frag) override;
  void OnDecision(const DecisionMessage& d) override;
  void OnTimer(const TimerFire& t) override;
  bool Idle() const override { return txns_.empty() && lm_.Empty(); }

  const LockManager& lock_manager() const { return lm_; }

 private:
  /// A transaction is its own lock owner: the lock manager keeps its held
  /// ids and its one waiting request in the LockManager::Owner base.
  struct LTxn : LockManager::Owner {
    CommitRecord rec;
    uint32_t attempt = 0;
    NodeId coord = kInvalidNode;
    UndoBuffer undo;
    // Current fragment's lock acquisition state.
    std::vector<LockRequest> lock_plan;
    size_t lock_cursor = 0;
    FragmentRequest pending_frag;
    bool has_pending = false;
    bool prepared = false;  // voted commit; waiting for the 2PC decision
    uint64_t wait_generation = 0;

    /// Called once its locks are released: drops the payloads and keeps the
    /// buffers' capacity for the entry's next transaction.
    void Reset() {
      rec.args = nullptr;
      rec.round_inputs.clear();
      undo.Clear();
      lock_plan.clear();
      lock_cursor = 0;
      pending_frag = {};
      has_pending = false;
      prepared = false;
      wait_generation = 0;
    }
  };

  void FastPathSp(FragmentRequest& f);
  void BeginFragment(LTxn* t, FragmentRequest f);
  /// Requests locks from the cursor onward; executes when all are granted.
  /// The requester may be killed (deadlock victim) inside this call.
  void AdvanceLocks(LTxn* t);
  void HandleBlocked(LTxn* t);
  void ExecutePending(LTxn* t);
  /// Releases `t`'s locks, erases it and runs the grants the release made.
  void FinishTxn(LTxn* t);
  /// Advances each grantee on grantees_ from `first` on, then pops them.
  void ProcessGrants(size_t first);
  /// Aborts a waiting/executing transaction for deadlock resolution.
  void KillTxn(LTxn* victim, bool timeout);
  LTxn* ChooseVictim(const std::vector<LockManager::Owner*>& cycle);

  PartitionExec* part_;
  bool force_locks_;
  LockManager lm_;
  TxnTable<LTxn> txns_;
  uint64_t generation_counter_ = 0;
  // Scratch reused across calls. A release's grants are taken from granted_
  // as txn ids onto grantees_, a stack that nested releases push above.
  std::vector<LockManager::Granted> granted_;
  std::vector<TxnId> grantees_;
  std::vector<LockManager::Owner*> cycle_;
};

}  // namespace partdb

#endif  // PARTDB_CC_LOCKING_H_

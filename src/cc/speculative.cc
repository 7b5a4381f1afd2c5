#include "cc/speculative.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"

namespace partdb {

namespace {
/// Recycled Txn structs kept per partition: bounds the speculation queue's
/// idle footprint while covering any realistic uncommitted depth.
constexpr size_t kTxnPoolMax = 64;
}  // namespace

SpeculativeCc::TxnPtr SpeculativeCc::NewTxn(const FragmentRequest& f) {
  TxnPtr t;
  if (txn_pool_.empty()) {
    t = std::make_unique<Txn>();
  } else {
    t = std::move(txn_pool_.back());
    txn_pool_.pop_back();
  }
  t->rec.txn_id = f.txn_id;
  t->rec.multi_partition = f.multi_partition;
  t->rec.proc = f.proc;
  t->rec.args = f.args;
  t->coord = f.coordinator;
  // Under kSnapshot every Txn is a head MP whose writes snapshot reads lift.
  if (run_behind_ == RunBehind::kSnapshot) t->undo.EnableRedo();
  if (track_access_) TrackAccess(*t, f);
  return t;
}

void SpeculativeCc::RecycleTxn(TxnPtr t) {
  if (t == nullptr || txn_pool_.size() >= kTxnPoolMax) return;
  t->rec.args = nullptr;
  t->rec.round_inputs.clear();
  t->frags.clear();
  t->undo.Clear();
  t->finished = false;
  t->aborted_locally = false;
  t->undo_applied = false;
  t->held = {};
  t->reads.clear();
  t->writes.clear();
  t->last_response = {};
  txn_pool_.push_back(std::move(t));
}

void SpeculativeCc::TrackAccess(Txn& t, const FragmentRequest& f) {
  // The declared lock set is exactly the access set; tracking it is the
  // read/write-set bookkeeping the paper says OCC cannot avoid (§5.7).
  std::vector<LockRequest> plan;
  part_->engine().LockSet(*f.args, f.round, &plan);
  WorkMeter tracking;
  for (const LockRequest& lr : plan) {
    (lr.exclusive ? t.writes : t.reads).push_back(lr.lock_id);
    tracking.lock_acquires++;  // charged like lock-manager traffic
    tracking.lock_table_ops++;
  }
  part_->ChargeLockWork(tracking);
}

bool SpeculativeCc::MayRunBehind(const FragmentRequest& f) const {
  return run_behind_ == RunBehind::kEverything ||
         (run_behind_ == RunBehind::kSinglePartition && !f.multi_partition);
}

void SpeculativeCc::OnFragment(FragmentRequest frag) {
  // A later round of the in-flight multi-partition transaction. By the
  // coordinator's dependency gating, rounds past 0 are only dispatched once
  // every earlier transaction here has committed, so the target is both head
  // and tail of the uncommitted queue.
  if (!uncommitted_.empty() && frag.multi_partition &&
      frag.txn_id == uncommitted_.back()->rec.txn_id && !uncommitted_.back()->finished) {
    ContinueTail(frag);
    // Under kSnapshot only a decision drains (see the header).
    if (run_behind_ != RunBehind::kSnapshot) DrainQueue();
    return;
  }

  // Every other arrival leaves the queue's front as blocked as it was, so
  // there is nothing to drain.
  if (uncommitted_.empty()) {
    PARTDB_DCHECK(unexecuted_.empty());
    ExecuteFresh(frag);
  } else if (run_behind_ == RunBehind::kSnapshot && !frag.multi_partition) {
    if (!RunBeforeHead(frag)) {
      part_->metrics().mvcc_conflict_waits++;
      unexecuted_.push_back(std::move(frag));
    }
  } else if (unexecuted_.empty() && uncommitted_.back()->finished && MayRunBehind(frag)) {
    if (frag.multi_partition) {
      SpeculateMp(frag);
    } else {
      SpeculateSp(frag);
    }
  } else {
    // Either the tail is still executing rounds, or earlier fragments are
    // already queued (FIFO), or the policy keeps this transaction out of
    // the stall: wait.
    unexecuted_.push_back(std::move(frag));
  }
}

void SpeculativeCc::ExecuteFresh(FragmentRequest& f) {
  if (!f.multi_partition) {
    // Fast path (paper §3.2): no speculation active, execute and commit.
    ExecuteSp(f);
    return;
  }
  // New non-speculative head.
  TxnPtr t = NewTxn(f);
  RunMpFragment(*t, f, kInvalidTxn);
  uncommitted_.push_back(std::move(t));
}

void SpeculativeCc::ExecuteSp(const FragmentRequest& f, UndoBuffer* lift) {
  if (lift != nullptr) {
    // What remains under the head's pending versions is the committed
    // snapshot: exactly the state replaying the log so far produces.
    part_->ChargeUndo(lift->size());
    lift->Lift();
  }
  // Undo is kept only if the procedure may user-abort.
  UndoBuffer undo;
  ExecResult r = part_->RunFragment(f, f.can_abort ? &undo : nullptr);
  if (lift != nullptr) {
    // A self-abort comes off the snapshot before the pending versions return.
    if (r.aborted) {
      part_->ChargeUndo(undo.size());
      undo.Rollback();
    }
    lift->Reinstall();
    part_->ChargeUndo(lift->size());
    part_->metrics().mvcc_snapshot_reads++;
  }
  ReplySp(part_, f, r, &undo);
}

bool SpeculativeCc::RunBeforeHead(const FragmentRequest& f) {
  Txn& head = *uncommitted_.front();
  const auto in = [](const std::vector<uint64_t>& keys, uint64_t k) {
    return std::find(keys.begin(), keys.end(), k) != keys.end();
  };
  std::vector<LockRequest> plan;
  part_->engine().LockSet(*f.args, f.round, &plan);
  WorkMeter tracking;
  bool writes_conflict = false;
  bool needs_snapshot = false;
  for (const LockRequest& lr : plan) {
    tracking.lock_acquires++;  // charged like lock-manager traffic
    tracking.lock_table_ops++;
    const bool head_writes = in(head.writes, lr.lock_id);
    if (lr.exclusive && (head_writes || in(head.reads, lr.lock_id))) writes_conflict = true;
    if (head_writes) needs_snapshot = true;
  }
  part_->ChargeLockWork(tracking);
  if (writes_conflict) return false;
  ExecuteSp(f, needs_snapshot ? &head.undo : nullptr);
  return true;
}

void SpeculativeCc::SpeculateSp(FragmentRequest& f) {
  TxnPtr t = NewTxn(f);
  t->frags.push_back(f);
  t->rec.round_inputs.push_back(f.round_input);
  t->held = part_->RunFragment(f, &t->undo);
  part_->metrics().speculative_execs++;
  t->finished = true;
  // Results of speculated single-partition transactions cannot leave the
  // database until every earlier transaction has committed (§4.2.1). A
  // self-aborting speculation must roll back immediately so later
  // speculations never observe its dirty writes.
  if (t->held.aborted) {
    t->aborted_locally = true;
    RollBack(*t);
  }
  uncommitted_.push_back(std::move(t));
}

void SpeculativeCc::SpeculateMp(FragmentRequest& f) {
  TxnPtr t = NewTxn(f);
  const TxnId dep = LastMpId();
  PARTDB_CHECK(dep != kInvalidTxn);
  RunMpFragment(*t, f, dep);
  part_->metrics().speculative_execs++;
  uncommitted_.push_back(std::move(t));
}

void SpeculativeCc::ContinueTail(FragmentRequest& f) {
  Txn& t = *uncommitted_.back();
  // Rounds past 0 run only once the transaction is the head (see above).
  PARTDB_CHECK(uncommitted_.size() == 1 || f.round == 0);
  if (track_access_) TrackAccess(t, f);
  RunMpFragment(t, f, kInvalidTxn);
}

void SpeculativeCc::RunMpFragment(Txn& t, FragmentRequest& f, TxnId dep) {
  t.frags.push_back(f);
  t.rec.round_inputs.push_back(f.round_input);
  ExecResult r = part_->RunFragment(f, &t.undo);
  if (r.aborted) t.aborted_locally = true;
  t.finished = f.last_round;
  FragmentResponse sent = VoteMp(part_, f, r, t.rec, epoch_, dep);
  if (validate_) t.last_response = std::move(sent);
}

void SpeculativeCc::RollBack(Txn& t) {
  if (t.undo_applied) return;
  part_->ChargeUndo(t.undo.size());
  t.undo.Rollback();
  t.undo_applied = true;
}

TxnId SpeculativeCc::LastMpId() const {
  for (auto it = uncommitted_.rbegin(); it != uncommitted_.rend(); ++it) {
    if ((*it)->rec.multi_partition) return (*it)->rec.txn_id;
  }
  return kInvalidTxn;
}

void SpeculativeCc::OnDecision(const DecisionMessage& d) {
  PARTDB_CHECK(!uncommitted_.empty());
  Txn* head = uncommitted_.front().get();
  PARTDB_CHECK(head->rec.txn_id == d.txn_id);
  PARTDB_CHECK(head->rec.multi_partition);

  if (d.commit) {
    PARTDB_CHECK(head->finished && !head->aborted_locally);
    head->undo.Clear();
    part_->DecideMp(head->rec, true);
    RecycleTxn(std::move(uncommitted_.front()));
    uncommitted_.pop_front();
    ReleaseCommittedSp();
  } else {
    AbortHead();
  }
  DrainQueue();
}

void SpeculativeCc::AbortHead() {
  ++epoch_;
  TxnPtr h = std::move(uncommitted_.front());
  uncommitted_.pop_front();

  // The validation walk, oldest first: a transaction is invalid iff its
  // access set meets the written keys of the head and of every invalidated
  // transaction before it. Without validation every transaction is invalid
  // (speculation's cascade, paper Fig. 3). Invalid entries move out of the
  // queue; the survivors keep their order.
  std::unordered_set<uint64_t> poisoned;
  poisoned.insert(h->writes.begin(), h->writes.end());
  bool mp_poisoned = false;
  WorkMeter validation;
  std::vector<TxnPtr> invalid;  // queue order
  for (TxnPtr& t : uncommitted_) {
    bool conflict = !validate_;
    for (uint64_t k : t->reads) {
      validation.lock_table_ops++;
      if (poisoned.count(k)) conflict = true;
    }
    for (uint64_t k : t->writes) {
      validation.lock_table_ops++;
      if (poisoned.count(k)) conflict = true;
    }
    // Multi-partition transactions must keep their relative order identical
    // on every participant (otherwise per-partition dependency chains can
    // cycle at the coordinator). Once one MP transaction is invalidated,
    // every later MP transaction re-executes as well; only single-partition
    // transactions enjoy fully selective validation.
    if (t->rec.multi_partition && mp_poisoned) conflict = true;
    if (!conflict) continue;
    if (t->rec.multi_partition) mp_poisoned = true;
    poisoned.insert(t->writes.begin(), t->writes.end());
    invalid.push_back(std::move(t));
  }
  std::erase(uncommitted_, nullptr);
  if (validate_) part_->ChargeLockWork(validation);

  // Undo the invalid transactions newest first (their keys are disjoint from
  // every survivor's, so rolling them back leaves surviving state alone),
  // then the head. push_front requeues them in their original order.
  for (auto it = invalid.rbegin(); it != invalid.rend(); ++it) {
    RollBack(**it);
    part_->metrics().cascading_reexecs++;
    // Speculated transactions have executed exactly one fragment (round 0);
    // multi-round transactions past round 0 can no longer be cascaded.
    PARTDB_CHECK((*it)->frags.size() == 1);
    FragmentRequest f = std::move((*it)->frags[0]);
    f.attempt++;
    unexecuted_.push_front(std::move(f));
    RecycleTxn(std::move(*it));
  }
  RollBack(*h);
  part_->DecideMp(h->rec, false);
  RecycleTxn(std::move(h));

  part_->metrics().occ_survivors += uncommitted_.size();
  // Survivors' speculative votes referenced the old epoch (and possibly the
  // aborted head); resend them revalidated so the coordinator can proceed.
  TxnId prev_mp = kInvalidTxn;
  for (TxnPtr& t : uncommitted_) {
    if (!t->rec.multi_partition) continue;
    t->last_response.epoch = epoch_;
    t->last_response.depends_on = prev_mp;
    part_->Send(t->coord, t->last_response);
    prev_mp = t->rec.txn_id;
  }
  // A surviving single-partition prefix has no uncommitted predecessors left.
  ReleaseCommittedSp();
}

void SpeculativeCc::ReleaseCommittedSp() {
  // Commit speculated single-partition transactions up to the next
  // multi-partition transaction and release their buffered results.
  while (!uncommitted_.empty() && !uncommitted_.front()->rec.multi_partition) {
    Txn& t = *uncommitted_.front();
    PARTDB_CHECK(t.finished);
    ReplySp(part_, t.frags[0], t.held, t.undo_applied ? nullptr : &t.undo);
    RecycleTxn(std::move(uncommitted_.front()));
    uncommitted_.pop_front();
  }
}

void SpeculativeCc::DrainQueue() {
  while (!unexecuted_.empty()) {
    if (uncommitted_.empty()) {
      FragmentRequest f = std::move(unexecuted_.front());
      unexecuted_.pop_front();
      ExecuteFresh(f);
      continue;
    }
    Txn* tail = uncommitted_.back().get();
    FragmentRequest& peek = unexecuted_.front();
    if (peek.multi_partition && peek.txn_id == tail->rec.txn_id && !tail->finished) {
      FragmentRequest f = std::move(unexecuted_.front());
      unexecuted_.pop_front();
      ContinueTail(f);
      continue;
    }
    if (run_behind_ == RunBehind::kSnapshot) {
      // The next MP waits its turn; a writer into the new head's accesses
      // waits for its decision.
      if (peek.multi_partition || !RunBeforeHead(peek)) break;
      unexecuted_.pop_front();
      continue;
    }
    if (tail->finished) {
      if (!MayRunBehind(peek)) break;  // wait for the decision
      FragmentRequest f = std::move(unexecuted_.front());
      unexecuted_.pop_front();
      if (f.multi_partition) {
        SpeculateMp(f);
      } else {
        SpeculateSp(f);
      }
      continue;
    }
    break;  // tail still executing rounds: must wait (paper §4.2.2 limitation)
  }
}

}  // namespace partdb

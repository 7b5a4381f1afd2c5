#include "cc/mvcc.h"

#include "common/logging.h"

namespace partdb {

void MvccCc::OnFragment(FragmentRequest frag) {
  if (frag.multi_partition) {
    if (pending_.has_value() && frag.txn_id == pending_->rec.txn_id) {
      ContinueMp(frag);
      return;
    }
    if (!pending_.has_value() && waiting_.empty()) {
      StartMp(frag);
    } else {
      waiting_.push_back(std::move(frag));
    }
    return;
  }

  if (!pending_.has_value()) {
    PARTDB_DCHECK(waiting_.empty());
    ExecuteSp(frag);
    return;
  }

  // Single-partition arrival during the pending MP's 2PC window. Classify
  // against the MP's declared access set; only a write into that set waits.
  bool writes_conflict = false;
  bool needs_snapshot = false;
  ClassifySp(frag, &writes_conflict, &needs_snapshot);
  if (writes_conflict) {
    if (part_->metrics().recording) part_->metrics().mvcc_conflict_waits++;
    waiting_.push_back(std::move(frag));
    return;
  }
  ExecuteSp(frag, needs_snapshot);
}

void MvccCc::ClassifySp(const FragmentRequest& f, bool* writes_conflict,
                        bool* needs_snapshot) {
  std::vector<LockRequest> plan;
  part_->engine().LockSet(*f.args, f.round, &plan);
  WorkMeter tracking;
  for (const LockRequest& lr : plan) {
    tracking.lock_acquires++;  // charged like lock-manager traffic (§5.7)
    tracking.lock_table_ops++;
    if (lr.exclusive && pending_->accesses.count(lr.lock_id) != 0) *writes_conflict = true;
    if (pending_->writes.count(lr.lock_id) != 0) *needs_snapshot = true;
  }
  part_->ChargeLockWork(tracking);
}

void MvccCc::AccumulateMpAccess(const FragmentRequest& f) {
  std::vector<LockRequest> plan;
  part_->engine().LockSet(*f.args, f.round, &plan);
  WorkMeter tracking;
  for (const LockRequest& lr : plan) {
    tracking.lock_acquires++;
    tracking.lock_table_ops++;
    pending_->accesses.insert(lr.lock_id);
    if (lr.exclusive) pending_->writes.insert(lr.lock_id);
  }
  part_->ChargeLockWork(tracking);
}

void MvccCc::ExecuteSp(FragmentRequest& f, bool on_snapshot) {
  if (on_snapshot) {
    // Lift the pending version chain off the store: what remains is the
    // committed snapshot at commit_ts_ — exactly the replay-prefix state.
    part_->ChargeUndo(pending_->versions.size());
    pending_->versions.Lift();
  }
  UndoBuffer undo;
  ExecResult r = part_->RunFragment(f, f.can_abort ? &undo : nullptr);
  if (r.aborted) {
    part_->ChargeUndo(undo.size());
    undo.Rollback();
  } else {
    ++commit_ts_;
  }
  if (on_snapshot) {
    pending_->versions.Reinstall();
    part_->ChargeUndo(pending_->versions.size());
    if (part_->metrics().recording) part_->metrics().mvcc_snapshot_reads++;
  }
  ReplySp(part_, f, r, nullptr);  // already rolled back, under the snapshot
}

void MvccCc::StartMp(FragmentRequest& f) {
  pending_.emplace();
  pending_->rec = {f.txn_id, true, f.proc, f.args, {}};
  pending_->versions.EnableRedo();
  ContinueMp(f);
}

void MvccCc::ContinueMp(FragmentRequest& f) {
  PARTDB_CHECK(!pending_->finished);
  pending_->rec.round_inputs.push_back(f.round_input);
  AccumulateMpAccess(f);
  ExecResult r = part_->RunFragment(f, &pending_->versions);
  if (r.aborted) pending_->aborted_locally = true;
  pending_->finished = f.last_round;
  VoteMp(part_, f, r, pending_->rec, epoch_);
}

void MvccCc::OnDecision(const DecisionMessage& d) {
  PARTDB_CHECK(pending_.has_value());
  PARTDB_CHECK(pending_->rec.txn_id == d.txn_id);
  if (d.commit) {
    PARTDB_CHECK(!pending_->aborted_locally);
    // The pending versions become the committed state; dropping the chain is
    // the whole of garbage collection (nothing retains old versions past the
    // 2PC window).
    pending_->versions.Clear();
    ++commit_ts_;
  } else {
    ++epoch_;
    part_->ChargeUndo(pending_->versions.size());
    pending_->versions.Rollback();  // unlink the pending versions
  }
  part_->DecideMp(pending_->rec, d.commit);
  pending_.reset();
  Drain();
}

void MvccCc::Drain() {
  while (!waiting_.empty()) {
    FragmentRequest& front = waiting_.front();
    if (pending_.has_value()) {
      if (front.multi_partition) break;  // FIFO: the next MP waits its turn
      bool writes_conflict = false;
      bool needs_snapshot = false;
      ClassifySp(front, &writes_conflict, &needs_snapshot);
      if (writes_conflict) break;  // still stalled on the new pending MP
      FragmentRequest f = std::move(front);
      waiting_.pop_front();
      ExecuteSp(f, needs_snapshot);
      continue;
    }
    FragmentRequest f = std::move(front);
    waiting_.pop_front();
    if (f.multi_partition) {
      StartMp(f);
    } else {
      ExecuteSp(f);
    }
  }
}

}  // namespace partdb

#include "cc/locking.h"

#include "common/logging.h"

namespace partdb {

/// Distributed-deadlock timeout (paper §4.3). Real systems use tens to
/// hundreds of milliseconds; 20 ms makes each distributed deadlock clearly
/// expensive (the paper: timeouts "hurt throughput significantly").
constexpr Duration kLockTimeout = Micros(20000);

void LockingCc::OnFragment(FragmentRequest frag) {
  // No-lock fast path (paper §4.3): with no active transactions a
  // single-partition transaction runs to completion without locks or undo.
  if (!force_locks_ && !frag.multi_partition && txns_.empty() && lm_.Empty()) {
    FastPathSp(frag);
    return;
  }
  LTxn* t = txns_.Find(frag.txn_id);
  if (t == nullptr) {
    t = &txns_.Emplace(frag.txn_id);
    t->rec.txn_id = frag.txn_id;
    t->rec.multi_partition = frag.multi_partition;
    t->rec.proc = frag.proc;
    t->rec.args = frag.args;
    t->attempt = frag.attempt;
    t->coord = frag.coordinator;
    part_->metrics().locked_txns++;
  } else {
    PARTDB_CHECK(t->rec.multi_partition && !t->has_pending && !t->prepared);  // next round
  }
  BeginFragment(t, std::move(frag));
}

void LockingCc::FastPathSp(FragmentRequest& f) {
  part_->metrics().lock_fast_path++;
  UndoBuffer undo;
  ExecResult r = part_->RunFragment(f, f.can_abort ? &undo : nullptr);
  ReplySp(part_, f, r, &undo);
}

void LockingCc::BeginFragment(LTxn* t, FragmentRequest f) {
  t->lock_plan.clear();
  t->lock_cursor = 0;
  part_->engine().LockSet(*f.args, f.round, &t->lock_plan);
  t->held.reserve(t->held.size() + t->lock_plan.size());
  t->pending_frag = std::move(f);
  t->has_pending = true;
  AdvanceLocks(t);
}

void LockingCc::AdvanceLocks(LTxn* t) {
  WorkMeter m;
  while (t->lock_cursor < t->lock_plan.size()) {
    const LockRequest& lr = t->lock_plan[t->lock_cursor];
    if (lm_.Acquire(lr.lock_id, t, lr.exclusive, &m)) {
      t->lock_cursor++;
      continue;
    }
    part_->ChargeLockWork(m);
    HandleBlocked(t);  // may kill *t; do not touch t afterwards
    return;
  }
  part_->ChargeLockWork(m);
  ExecutePending(t);
}

void LockingCc::HandleBlocked(LTxn* t) {
  const TxnId tid = t->rec.txn_id;
  if (lm_.FindCycle(t, &cycle_)) {
    part_->metrics().local_deadlocks++;
    LTxn* victim = ChooseVictim(cycle_);
    KillTxn(victim, /*timeout=*/false);
  }
  // Arm a distributed-deadlock timeout if the requester is still waiting.
  // Only multi-partition transactions can be in a distributed cycle.
  LTxn* cur = txns_.Find(tid);
  if (cur != nullptr && cur->rec.multi_partition && lm_.IsWaiting(cur)) {
    cur->wait_generation = ++generation_counter_;
    part_->SetTimer(kLockTimeout, TimerFire{tid, cur->wait_generation});
  }
}

LockingCc::LTxn* LockingCc::ChooseVictim(const std::vector<LockManager::Owner*>& cycle) {
  PARTDB_CHECK(!cycle.empty());
  // Prefer killing a single-partition transaction (paper §4.3): restarting it
  // wastes the least work.
  for (LockManager::Owner* v : cycle) {
    auto* t = static_cast<LTxn*>(v);
    if (!t->rec.multi_partition) return t;
  }
  // Otherwise kill the requester (the transaction that closed the cycle).
  return static_cast<LTxn*>(cycle.front());
}

void LockingCc::KillTxn(LTxn* victim, bool timeout) {
  if (timeout) part_->metrics().timeout_aborts++;
  if (!victim->undo.empty()) {
    part_->ChargeUndo(victim->undo.size());
    victim->undo.Rollback();
  }
  const bool mp = victim->rec.multi_partition;
  FragmentRequest retry_frag;
  NodeId coord = victim->coord;
  FragmentResponse resp;
  if (mp) {
    resp.txn_id = victim->rec.txn_id;
    resp.attempt = victim->attempt;
    resp.round = victim->pending_frag.round;
    resp.partition = part_->partition_id();
    resp.vote = Vote::kAbort;
    resp.system_abort = true;
  } else {
    retry_frag = std::move(victim->pending_frag);
    retry_frag.attempt++;
    part_->metrics().txn_retries++;
  }

  FinishTxn(victim);

  if (mp) {
    part_->Send(coord, resp);
  } else {
    // Restart the killed single-partition transaction locally.
    OnFragment(std::move(retry_frag));
  }
}

void LockingCc::ProcessGrants(size_t first) {
  const size_t last = grantees_.size();
  for (size_t i = first; i < last; ++i) {
    // Processing an earlier grant can kill a later grantee (deadlock victim
    // selection); skip ids that are no longer live.
    LTxn* t = txns_.Find(grantees_[i]);
    if (t == nullptr) continue;
    t->lock_cursor++;
    AdvanceLocks(t);
  }
  grantees_.resize(first);
}

void LockingCc::ExecutePending(LTxn* t) {
  PARTDB_CHECK(t->has_pending);
  t->has_pending = false;
  FragmentRequest f = std::move(t->pending_frag);
  t->rec.round_inputs.push_back(f.round_input);
  // Locking always records undo while other transactions are active: a
  // deadlock abort may roll the transaction back (paper §4.3).
  WorkMeter receipt;
  ExecResult r = part_->RunFragment(f, &t->undo, &receipt);

  // Per-tuple lock traffic: the paper's lock manager locks every row a
  // transaction touches. Conflicts are modeled by the coarser declared plan,
  // but the CPU cost of the extra per-row lock/unlock pairs is charged here
  // (rows already covered by the declared plan are not double-charged).
  const uint32_t tuples = std::max(receipt.reads, receipt.writes);
  if (tuples > t->lock_plan.size()) {
    const double scale = part_->cost().per_tuple_lock_multiplier;
    const uint32_t extra = static_cast<uint32_t>(
        (tuples - static_cast<uint32_t>(t->lock_plan.size())) * scale);
    WorkMeter lock_work;
    lock_work.lock_acquires = extra;
    lock_work.lock_releases = extra;
    lock_work.lock_table_ops = 2 * extra;
    part_->ChargeLockWork(lock_work);
  }

  if (!t->rec.multi_partition) {
    ReplySp(part_, f, r, &t->undo);
    FinishTxn(t);
    return;
  }
  if (r.aborted) {
    // Unilateral abort before voting: roll back, release, forget.
    part_->ChargeUndo(t->undo.size());
    t->undo.Rollback();
    VoteMp(part_, f, r, t->rec);
    FinishTxn(t);
    return;
  }
  t->prepared = f.last_round;
  VoteMp(part_, f, r, t->rec);
}

void LockingCc::FinishTxn(LTxn* t) {
  WorkMeter m;
  granted_.clear();
  lm_.ReleaseAll(t, &m, &granted_);
  part_->ChargeLockWork(m);
  // Take the grantees by id before any grant runs: running one can erase a
  // later grantee, and a new transaction can reuse its entry.
  const size_t first = grantees_.size();
  for (const LockManager::Granted& g : granted_) {
    grantees_.push_back(static_cast<LTxn*>(g.owner)->rec.txn_id);
  }
  txns_.Erase(t->rec.txn_id);
  ProcessGrants(first);
}

void LockingCc::OnDecision(const DecisionMessage& d) {
  LTxn* t = txns_.Find(d.txn_id);
  if (t == nullptr) return;  // already self-aborted (abort vote) and forgotten
  if (!t->prepared) {
    // Another participant aborted (deadlock timeout or victim kill) while
    // this one was still acquiring locks or between rounds. Roll back any
    // executed rounds and release everything.
    PARTDB_CHECK(!d.commit);
    if (!t->undo.empty()) {
      part_->ChargeUndo(t->undo.size());
      t->undo.Rollback();
    }
    FinishTxn(t);
    return;
  }
  if (d.commit) {
    t->undo.Clear();
  } else {
    part_->ChargeUndo(t->undo.size());
    t->undo.Rollback();
  }
  part_->DecideMp(t->rec, d.commit);
  FinishTxn(t);
}

void LockingCc::OnTimer(const TimerFire& tf) {
  LTxn* t = txns_.Find(tf.txn_id);
  if (t == nullptr || t->wait_generation != tf.generation || !lm_.IsWaiting(t)) {
    return;  // stale timer
  }
  PARTDB_CHECK(t->rec.multi_partition);
  KillTxn(t, /*timeout=*/true);
}

}  // namespace partdb

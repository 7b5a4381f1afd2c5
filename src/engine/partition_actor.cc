#include "engine/partition_actor.h"

#include "common/logging.h"
#include "durability/command_log.h"

namespace partdb {

void PartitionActor::OnMessage(Message& msg, ActorContext& ctx) {
  ctx_ = &ctx;
  std::visit(
      [&](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, FragmentRequest>) {
          ctx.Charge(cost_.partition_msg);
          if (snapshot_ != nullptr && m.round == 0) {
            parked_.push_back(std::move(m));
          } else {
            scheme_->OnFragment(std::move(m));
          }
        } else if constexpr (std::is_same_v<T, DecisionMessage>) {
          ctx.Charge(cost_.partition_msg + cost_.twopc_decide);
          decider_ = msg.src;
          scheme_->OnDecision(m);
        } else if constexpr (std::is_same_v<T, TimerFire>) {
          scheme_->OnTimer(m);
        } else if constexpr (std::is_same_v<T, ReplicaAck>) {
          ctx.Charge(cost_.partition_msg);
          Ack(m.order_seq);
        } else if constexpr (std::is_same_v<T, LogDurable>) {
          ctx.Charge(cost_.partition_msg);
          while (!log_waits_.empty() && log_waits_.front().log_seq <= m.through_seq) {
            Ack(log_waits_.front().hold);
            log_waits_.pop_front();
          }
        } else {
          PARTDB_CHECK(false);  // unexpected message at a primary
        }
      },
      msg.body);
  if (snapshot_ != nullptr && scheme_->Idle()) TakeSnapshot();
  ctx_ = nullptr;
}

void PartitionActor::RunAtIdlePoint(std::function<void()> snapshot) {
  PARTDB_CHECK(snapshot_ == nullptr);
  snapshot_ = std::move(snapshot);
  if (scheme_->Idle()) TakeSnapshot();
}

void PartitionActor::TakeSnapshot() {
  std::function<void()> snapshot = std::move(snapshot_);
  snapshot_ = nullptr;
  snapshot();
  for (FragmentRequest& frag : parked_) scheme_->OnFragment(std::move(frag));
  parked_.clear();
}

ExecResult PartitionActor::RunFragment(const FragmentRequest& frag, UndoBuffer* undo,
                                       WorkMeter* receipt) {
  PARTDB_CHECK(ctx_ != nullptr);
  WorkMeter m;
  ExecResult res = engine_->Execute(*frag.args, frag.round, frag.round_input.get(), undo, &m);
  Duration c = cost_.ExecCost(m);
  if (res.aborted) c += cost_.abort_exec;
  ctx_->Charge(c);
  if (receipt != nullptr) *receipt = m;
  if (res.result != nullptr) {
    recent_results_[next_result_] = res.result;
    next_result_ = (next_result_ + 1) % kRecentResults;
  }
  return res;
}

void PartitionActor::Charge(Duration d) {
  PARTDB_CHECK(ctx_ != nullptr);
  ctx_->Charge(d);
}

void PartitionActor::ChargeLockWork(const WorkMeter& m) {
  PARTDB_CHECK(ctx_ != nullptr);
  const Duration acq = cost_.LockAcquireCost(m);
  const Duration rel = cost_.LockReleaseCost(m);
  const Duration tab = cost_.LockTableCost(m);
  ctx_->Charge(acq + rel + tab);
  metrics_->lock_acquire_ns += acq;
  metrics_->lock_release_ns += rel;
  metrics_->lock_table_ns += tab;
  metrics_->lock_waits += m.lock_waits;
}

void PartitionActor::ChargeUndo(size_t records) {
  PARTDB_CHECK(ctx_ != nullptr);
  ctx_->Charge(cost_.per_undo * static_cast<Duration>(records));
}

void PartitionActor::Send(NodeId dst, MessageBody body) {
  PARTDB_CHECK(ctx_ != nullptr);
  ctx_->Send(dst, std::move(body));
}

void PartitionActor::SetTimer(Duration d, TimerFire t) {
  PARTDB_CHECK(ctx_ != nullptr);
  ctx_->SetTimer(d, t);
}

void PartitionActor::CommitSp(CommitRecord rec, NodeId dst, MessageBody reply) {
  const uint64_t log_seq = AppendToLogs(rec);
  ShipThenSend(/*outcome_known=*/true, std::move(rec), log_seq, dst, std::move(reply));
}

void PartitionActor::PrepareMp(CommitRecord rec, NodeId dst, MessageBody vote) {
  ShipThenSend(/*outcome_known=*/false, std::move(rec), /*log_seq=*/0, dst, std::move(vote));
}

void PartitionActor::DecideMp(const CommitRecord& rec, bool commit) {
  if (commit) {
    // The vote already waited for the backups; the decider replies to the
    // client once every participant's decided record is in its log too.
    const uint64_t log_seq = AppendToLogs(rec);
    if (log_seq != 0) Hold(/*backup_acks=*/0, log_seq, decider_, DurableNotice{rec.txn_id});
  }
  if (backups_.empty()) return;
  PARTDB_CHECK(ctx_ != nullptr);
  for (NodeId b : backups_) ctx_->Send(b, ReplicaDecision{rec.txn_id, commit});
}

uint64_t PartitionActor::AppendToLogs(const CommitRecord& rec) {
  if (log_commits_) commit_log_.push_back(rec);
  if (durability_log_ == nullptr) return 0;
  const uint64_t log_seq = durability_log_->Append(rec);
  if (!hold_for_log_) return 0;
  log_batch_open_ = true;
  return log_seq;
}

void PartitionActor::OnIdle() {
  if (!log_batch_open_) return;
  log_batch_open_ = false;
  durability_log_->CloseBatch();
}

void PartitionActor::ShipThenSend(bool outcome_known, CommitRecord rec, uint64_t log_seq,
                                  NodeId dst, MessageBody body) {
  const uint64_t hold = Hold(static_cast<int>(backups_.size()), log_seq, dst, std::move(body));
  if (backups_.empty()) return;
  const ReplicaShip ship{hold, outcome_known, std::move(rec)};
  for (NodeId b : backups_) ctx_->Send(b, ship);
}

uint64_t PartitionActor::Hold(int backup_acks, uint64_t log_seq, NodeId dst, MessageBody body) {
  PARTDB_CHECK(ctx_ != nullptr);
  const int acks = backup_acks + (log_seq != 0 ? 1 : 0);
  if (acks == 0) {
    ctx_->Send(dst, std::move(body));
    return 0;
  }
  const uint64_t hold = next_hold_seq_++;
  if (log_seq != 0) log_waits_.push_back(LogWait{log_seq, hold});
  Held& h = held_.Emplace(hold);
  h.acks_remaining = acks;
  h.dst = dst;
  h.body = std::move(body);
  return hold;
}

void PartitionActor::Ack(uint64_t hold) {
  Held* h = held_.Find(hold);
  PARTDB_CHECK(h != nullptr);
  if (--h->acks_remaining == 0) {
    ctx_->Send(h->dst, std::move(h->body));
    held_.Erase(hold);
  }
}

}  // namespace partdb

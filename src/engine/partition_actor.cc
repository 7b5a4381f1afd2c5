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
          scheme_->OnFragment(std::move(m));
        } else if constexpr (std::is_same_v<T, DecisionMessage>) {
          ctx.Charge(cost_.partition_msg + cost_.twopc_decide);
          scheme_->OnDecision(m);
        } else if constexpr (std::is_same_v<T, TimerFire>) {
          scheme_->OnTimer(m);
        } else if constexpr (std::is_same_v<T, ReplicaAck>) {
          ctx.Charge(cost_.partition_msg);
          auto it = pending_durable_.find(m.order_seq);
          PARTDB_CHECK(it != pending_durable_.end());
          if (--it->second.acks_remaining == 0) {
            ctx.Send(it->second.dst, std::move(it->second.body));
            pending_durable_.erase(it);
          }
        } else {
          PARTDB_CHECK(false);  // unexpected message at a primary
        }
      },
      msg.body);
  ctx_ = nullptr;
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
  if (metrics_->recording) {
    metrics_->lock_acquire_ns += acq;
    metrics_->lock_release_ns += rel;
    metrics_->lock_table_ns += tab;
    metrics_->lock_waits += m.lock_waits;
  }
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
  AppendToLogs(rec);
  ShipThenSend(/*outcome_known=*/true, std::move(rec), dst, std::move(reply));
}

void PartitionActor::PrepareMp(CommitRecord rec, NodeId dst, MessageBody vote) {
  ShipThenSend(/*outcome_known=*/false, std::move(rec), dst, std::move(vote));
}

void PartitionActor::DecideMp(const CommitRecord& rec, bool commit) {
  if (commit) AppendToLogs(rec);
  if (backups_.empty()) return;
  PARTDB_CHECK(ctx_ != nullptr);
  for (NodeId b : backups_) ctx_->Send(b, ReplicaDecision{rec.txn_id, commit});
}

void PartitionActor::AppendToLogs(const CommitRecord& rec) {
  if (durability_log_ != nullptr) durability_log_->Append(rec);
  if (log_commits_) commit_log_.push_back(rec);
}

void PartitionActor::ShipThenSend(bool outcome_known, CommitRecord rec, NodeId dst,
                                  MessageBody body) {
  PARTDB_CHECK(ctx_ != nullptr);
  if (backups_.empty()) {
    ctx_->Send(dst, std::move(body));
    return;
  }
  const uint64_t seq = next_ship_seq_++;
  const ReplicaShip ship{seq, outcome_known, std::move(rec)};
  for (NodeId b : backups_) ctx_->Send(b, ship);
  pending_durable_[seq] =
      PendingDurable{static_cast<int>(backups_.size()), dst, std::move(body)};
}

}  // namespace partdb

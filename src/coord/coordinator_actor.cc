#include "coord/coordinator_actor.h"

#include "common/logging.h"

namespace partdb {

void CoordinatorActor::OnMessage(Message& msg, ActorContext& ctx) {
  if (auto* r = std::get_if<ClientRequest>(&msg.body)) {
    ctx.Charge(cost_.coord_msg);
    OnRequest(*r, msg.src, ctx);
    return;
  }
  if (auto* r = std::get_if<FragmentResponse>(&msg.body)) {
    ctx.Charge(cost_.coord_msg);
    OnResponse(*r, ctx);
    return;
  }
  if (auto* d = std::get_if<DurableNotice>(&msg.body)) {
    ctx.Charge(cost_.coord_msg);
    MpTxn* t = txns_.Find(d->txn_id);
    PARTDB_CHECK(t != nullptr && t->held);
    if (t->mp.OnNotice()) {
      Reply(*t, true, ctx);
      txns_.Erase(d->txn_id);
    }
    return;
  }
  PARTDB_CHECK(false);  // coordinator receives requests, responses and notices
}

void CoordinatorActor::OnRequest(ClientRequest& r, NodeId src, ActorContext& ctx) {
  PARTDB_CHECK(r.participants.size() >= 1);
  MpTxn& t = txns_.Emplace(r.txn_id);
  t.client = src;
  t.mp.Start(std::move(r), next_seq_++);
  SendRound(t, ctx);
}

void CoordinatorActor::SendRound(const MpTxn& t, ActorContext& ctx) {
  for (PartitionId p : t.mp.request().participants) {
    ctx.Charge(cost_.coord_send);
    ctx.Send(partition_nodes_[p], t.mp.Fragment(node_id()));
  }
}

void CoordinatorActor::OnResponse(FragmentResponse& r, ActorContext& ctx) {
  MpTxn* t = txns_.Find(r.txn_id);
  if (t == nullptr || t->held) return;  // late response for a decided transaction
  PARTDB_CHECK(r.partition >= 0 &&
               static_cast<size_t>(r.partition) < expected_epoch_.size());
  // Stale: executed before an abort this coordinator sent to the partition
  // (the attempt is no filter here: a cascade re-executes as attempt + 1).
  if (r.epoch < expected_epoch_[r.partition]) return;
  if (r.round != t->mp.round()) return;  // response for a superseded round
  if (t->mp.Collect(std::move(r))) TryAdvance(t, ctx);
}

void CoordinatorActor::TryAdvance(MpTxn* t, ActorContext& ctx) {
  if (!t->mp.complete()) return;
  // Dependency gate (§4.2.2): every speculative result must have its
  // dependency committed before we can act on this round. A dependency is
  // always a multi-partition transaction this coordinator ordered before
  // `t`, so it is undecided exactly while it is in txns_ and not held.
  for (const FragmentResponse& r : t->mp.responses()) {
    if (r.depends_on == kInvalidTxn) continue;
    MpTxn* dep = txns_.Find(r.depends_on);
    if (dep != nullptr && !dep->held) {
      if (!t->parked) {
        t->parked = true;
        dep->dependents.push_back(t->mp.txn_id());
      }
      return;  // wait for the dependency's outcome
    }
    // A decided dependency here has committed. Had it aborted, this response
    // would carry a pre-abort epoch: Decide forgot it when the abort was
    // sent, and OnResponse drops one that arrives later.
  }
  t->parked = false;

  if (t->mp.aborted()) {
    Decide(t, false, ctx);
    return;
  }
  if (!t->mp.last_round()) {
    // Application code runs here to compute the next round (paper §3.3).
    t->mp.NextRound(*continuations_);
    SendRound(*t, ctx);
    return;
  }
  Decide(t, true, ctx);
}

void CoordinatorActor::Decide(MpTxn* t, bool commit, ActorContext& ctx) {
  const TxnId id = t->mp.txn_id();
  for (PartitionId p : t->mp.request().participants) {
    ctx.Charge(cost_.coord_send);
    ctx.Send(partition_nodes_[p], DecisionMessage{id, 0, commit});
  }
  if (!commit) {
    // Each participant rolls back and re-executes or resends every later
    // fragment under a new epoch: every response stored from it is stale.
    // A held commit is decided: its responses are not stale.
    for (PartitionId p : t->mp.request().participants) {
      expected_epoch_[p]++;
      for (auto& entry : txns_) {
        if (!entry.second.held) entry.second.mp.Forget(p);
      }
    }
  }

  const SmallVector<TxnId, 4> dependents = std::move(t->dependents);
  if (commit && durable_notices_) {
    t->mp.AwaitNotices();
    t->held = true;
  } else {
    Reply(*t, commit, ctx);
    txns_.Erase(id);
  }

  // Wake transactions parked on this outcome.
  for (TxnId w : dependents) {
    MpTxn* d = txns_.Find(w);
    if (d == nullptr || d->held) continue;
    d->parked = false;
    TryAdvance(d, ctx);
  }
}

void CoordinatorActor::Reply(const MpTxn& t, bool commit, ActorContext& ctx) {
  ctx.Charge(cost_.coord_send);
  ctx.Send(t.client, ClientResponse{.txn_id = t.mp.txn_id(), .committed = commit,
                                    .result = commit ? t.mp.Result() : nullptr});
}

}  // namespace partdb

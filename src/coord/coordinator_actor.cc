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
    auto it = held_.find(d->txn_id);
    PARTDB_CHECK(it != held_.end());
    if (it->second->mp.OnNotice()) {
      Reply(*it->second, true, ctx);
      held_.erase(it);
    }
    return;
  }
  PARTDB_CHECK(false);  // coordinator receives requests, responses and notices
}

void CoordinatorActor::OnRequest(ClientRequest& r, NodeId src, ActorContext& ctx) {
  PARTDB_CHECK(r.participants.size() >= 1);
  const TxnId id = r.txn_id;
  auto t = std::make_unique<MpTxn>();
  t->client = src;
  t->mp.Start(std::move(r), next_seq_++);
  MpTxn* raw = t.get();
  PARTDB_CHECK(txns_.emplace(id, std::move(t)).second);
  SendRound(*raw, ctx);
}

void CoordinatorActor::SendRound(const MpTxn& t, ActorContext& ctx) {
  for (PartitionId p : t.mp.request().participants) {
    ctx.Charge(cost_.coord_send);
    ctx.Send(partition_nodes_[p], t.mp.Fragment(node_id()));
  }
}

void CoordinatorActor::OnResponse(FragmentResponse& r, ActorContext& ctx) {
  auto it = txns_.find(r.txn_id);
  if (it == txns_.end()) return;  // late response for a decided transaction
  MpTxn* t = it->second.get();
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
  // `t`, so it is undecided exactly while it is still in txns_.
  for (const FragmentResponse& r : t->mp.responses()) {
    const TxnId dep = r.depends_on;
    if (dep == kInvalidTxn) continue;
    if (txns_.count(dep) != 0) {
      if (!t->parked) {
        t->parked = true;
        waiters_[dep].push_back(t->mp.txn_id());
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
    for (PartitionId p : t->mp.request().participants) {
      expected_epoch_[p]++;
      for (auto& entry : txns_) entry.second->mp.Forget(p);
    }
  }

  auto self = txns_.find(id);
  if (commit && durable_notices_) {
    t->mp.AwaitNotices();
    held_.emplace(id, std::move(self->second));
  } else {
    Reply(*t, commit, ctx);
  }
  txns_.erase(self);

  // Wake transactions parked on this outcome.
  auto wit = waiters_.find(id);
  if (wit != waiters_.end()) {
    std::vector<TxnId> list = std::move(wit->second);
    waiters_.erase(wit);
    for (TxnId w : list) {
      auto it = txns_.find(w);
      if (it == txns_.end()) continue;
      it->second->parked = false;
      TryAdvance(it->second.get(), ctx);
    }
  }
}

void CoordinatorActor::Reply(const MpTxn& t, bool commit, ActorContext& ctx) {
  ctx.Charge(cost_.coord_send);
  ctx.Send(t.client, ClientResponse{.txn_id = t.mp.txn_id(), .committed = commit,
                                    .result = commit ? t.mp.Result() : nullptr});
}

}  // namespace partdb

#include "coord/coordinator_actor.h"

#include <algorithm>

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
    auto it = held_replies_.find(d->txn_id);
    PARTDB_CHECK(it != held_replies_.end());
    if (--it->second.notices_due == 0) {
      ctx.Charge(cost_.coord_send);
      ctx.Send(it->second.client, std::move(it->second.reply));
      held_replies_.erase(it);
    }
    return;
  }
  PARTDB_CHECK(false);  // coordinator receives requests, responses and notices
}

void CoordinatorActor::OnRequest(ClientRequest& r, NodeId src, ActorContext& ctx) {
  PARTDB_CHECK(r.participants.size() >= 1);
  auto t = std::make_unique<MpTxn>();
  t->id = r.txn_id;
  t->seq = next_seq_++;
  t->client = src;
  t->proc = r.proc;
  t->args = r.args;
  t->parts = r.participants;
  t->rounds = r.num_rounds;
  t->can_abort = r.can_abort;
  t->resp.assign(t->parts.size(), PendingResponse{});
  MpTxn* raw = t.get();
  PARTDB_CHECK(txns_.emplace(r.txn_id, std::move(t)).second);
  SendRound(raw, nullptr, ctx);
}

void CoordinatorActor::SendRound(MpTxn* t, PayloadPtr round_input, ActorContext& ctx) {
  const bool last = t->round == t->rounds - 1;
  for (PartitionId p : t->parts) {
    FragmentRequest f;
    f.txn_id = t->id;
    f.attempt = 0;
    f.global_seq = t->seq;
    f.round = t->round;
    f.last_round = last;
    f.multi_partition = true;
    f.can_abort = t->can_abort;
    f.coordinator = node_id();
    f.proc = t->proc;
    f.args = t->args;
    f.round_input = round_input;
    ctx.Charge(cost_.coord_send);
    ctx.Send(partition_nodes_[p], std::move(f));
  }
}

void CoordinatorActor::OnResponse(FragmentResponse& r, ActorContext& ctx) {
  auto it = txns_.find(r.txn_id);
  if (it == txns_.end()) return;  // late response for a decided transaction
  MpTxn* t = it->second.get();
  PARTDB_CHECK(r.partition >= 0 &&
               static_cast<size_t>(r.partition) < expected_epoch_.size());
  if (r.epoch < expected_epoch_[r.partition]) return;  // stale speculation
  if (r.round != t->round) return;  // response for a superseded round

  auto pi = std::find(t->parts.begin(), t->parts.end(), r.partition);
  PARTDB_CHECK(pi != t->parts.end());
  const size_t idx = static_cast<size_t>(pi - t->parts.begin());
  t->resp[idx].received = true;
  t->resp[idx].resp = r;
  TryAdvance(t, ctx);
}

void CoordinatorActor::TryAdvance(MpTxn* t, ActorContext& ctx) {
  for (const auto& pr : t->resp) {
    if (!pr.received) return;
  }
  // Dependency gate (§4.2.2): every speculative result must have its
  // dependency committed before we can act on this round. A dependency is
  // always a multi-partition transaction this coordinator ordered before
  // `t`, so it is undecided exactly while it is still in txns_.
  for (const auto& pr : t->resp) {
    const TxnId dep = pr.resp.depends_on;
    if (dep == kInvalidTxn) continue;
    if (txns_.count(dep) != 0) {
      if (!t->parked) {
        t->parked = true;
        waiters_[dep].push_back(t->id);
      }
      return;  // wait for the dependency's outcome
    }
    // A decided dependency here has committed. Had it aborted, this response
    // would carry a pre-abort epoch: InvalidateStale cleared it when the
    // abort was sent, and OnResponse drops one that arrives later.
  }
  t->parked = false;

  bool abort = false;
  for (const auto& pr : t->resp) {
    if (pr.resp.vote == Vote::kAbort) abort = true;
  }
  if (abort) {
    Decide(t, false, ctx);
    return;
  }
  if (t->round < t->rounds - 1) {
    // Application code runs here to compute the next round (paper §3.3).
    t->last_results.clear();
    for (size_t i = 0; i < t->parts.size(); ++i) {
      t->last_results.emplace_back(t->parts[i], t->resp[i].resp.result);
    }
    PayloadPtr input =
        continuations_->NextRoundInput(t->proc, *t->args, t->round + 1, t->last_results);
    t->round++;
    t->resp.assign(t->parts.size(), PendingResponse{});
    SendRound(t, std::move(input), ctx);
    return;
  }
  Decide(t, true, ctx);
}

void CoordinatorActor::Decide(MpTxn* t, bool commit, ActorContext& ctx) {
  for (PartitionId p : t->parts) {
    ctx.Charge(cost_.coord_send);
    ctx.Send(partition_nodes_[p], DecisionMessage{t->id, 0, commit});
    if (!commit) {
      expected_epoch_[p]++;
    }
  }
  if (!commit) {
    for (PartitionId p : t->parts) InvalidateStale(p, ctx);
  }

  ClientResponse cr;
  cr.txn_id = t->id;
  cr.committed = commit;
  if (commit) {
    // Return the last round's results to the application.
    for (const auto& pr : t->resp) {
      if (pr.resp.result != nullptr) {
        cr.result = pr.resp.result;
        break;
      }
    }
  }
  if (commit && durable_notices_) {
    held_replies_[t->id] = {static_cast<uint32_t>(t->parts.size()), t->client, std::move(cr)};
  } else {
    ctx.Charge(cost_.coord_send);
    ctx.Send(t->client, cr);
  }

  const TxnId id = t->id;
  txns_.erase(id);

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

void CoordinatorActor::InvalidateStale(PartitionId p, ActorContext& /*ctx*/) {
  for (auto& [id, t] : txns_) {
    auto pi = std::find(t->parts.begin(), t->parts.end(), p);
    if (pi == t->parts.end()) continue;
    const size_t idx = static_cast<size_t>(pi - t->parts.begin());
    PendingResponse& pr = t->resp[idx];
    if (pr.received && pr.resp.epoch < expected_epoch_[p]) {
      pr.received = false;  // the partition will re-execute and resend
    }
  }
}

}  // namespace partdb

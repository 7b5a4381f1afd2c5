#include "client/session_actor.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace partdb {

SessionActor::SessionActor(std::string name, ProcRouter router, TxnContinuations* continuations,
                           Topology topology, CcSchemeCapabilities caps, const CostModel& cost,
                           uint64_t seed)
    : Actor(std::move(name)),
      router_(std::move(router)),
      continuations_(continuations),
      topology_(std::move(topology)),
      caps_(caps),
      cost_(cost),
      rng_(seed) {
  PARTDB_CHECK(router_ != nullptr);
}

SubmitResult SessionActor::Submit(ProcId proc, PayloadPtr args, TxnCallback cb) {
  // Fail at the call site, not on the worker.
  PARTDB_CHECK(proc >= 0);
  PARTDB_CHECK(args != nullptr);
  // A submission made from within one of this actor's own handlers (a
  // completion callback issuing the next closed-loop request) starts inline:
  // the message hop would only charge an extra client message and delay the
  // send, and no other thread can be running this actor concurrently.
  // Otherwise latency is measured from here: ingress queueing (the wait
  // until the session's worker picks the submission up) is part of what the
  // open-loop driver exists to observe.
  const bool on_handler =
      handler_thread_.load(std::memory_order_relaxed) == std::this_thread::get_id();
  const Time now = on_handler ? handler_ctx_->now() : exec()->Now();
  TxnId id;
  {
    MutexLock lock(mu_);
    if (max_inflight_ != 0 && admitted_ >= max_inflight_) return {false, kInvalidTxn};
    ++admitted_;
    id = MakeTxnId(node_id(), next_seq_++);
    ++outstanding_;
  }
  SessionSubmit s{id, proc, std::move(args), now, std::move(cb)};
  if (on_handler) {
    StartTxn(std::move(s), *handler_ctx_);
  } else {
    exec()->Send({node_id(), node_id(), std::move(s)}, now);
  }
  return {true, id};
}

bool SessionActor::WaitDrained(std::chrono::steady_clock::duration timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mu_);
  while (outstanding_ != 0) {
    if (!drained_cv_.WaitUntil(mu_, deadline) && outstanding_ != 0) return false;
  }
  return true;
}

void SessionActor::OnMessage(Message& msg, ActorContext& ctx) {
  ctx.Charge(cost_.client_msg);
  handler_ctx_ = &ctx;
  handler_thread_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  struct HandlerScope {
    SessionActor* self;
    ~HandlerScope() {
      self->handler_thread_.store(std::thread::id(), std::memory_order_relaxed);
      self->handler_ctx_ = nullptr;
    }
  } scope{this};

  if (auto* s = std::get_if<SessionSubmit>(&msg.body)) {
    StartTxn(std::move(*s), ctx);
    return;
  }
  if (auto* t = std::get_if<TimerFire>(&msg.body)) {
    // Retry backoff expired.
    Txn* txn = txns_.Find(t->txn_id);
    if (txn != nullptr && txn->mp.attempt() == t->generation) SendCurrent(*txn, ctx);
    return;
  }
  if (auto* r = std::get_if<ClientResponse>(&msg.body)) {
    Txn* t = txns_.Find(r->txn_id);
    if (t == nullptr) return;  // stale
    Complete(r->txn_id, r->committed, r->result, std::max(t->mp.attempt(), r->attempt) + 1, ctx);
    return;
  }
  if (auto* r = std::get_if<FragmentResponse>(&msg.body)) {
    PARTDB_CHECK(caps_.client_coordinated_2pc);
    OnFragmentResponse(*r, ctx);
    return;
  }
  if (auto* d = std::get_if<DurableNotice>(&msg.body)) {
    Txn* t = txns_.Find(d->txn_id);
    PARTDB_CHECK(t != nullptr);
    MpRound& mp = t->mp;
    if (mp.OnNotice()) Complete(d->txn_id, true, mp.Result(), mp.attempt() + 1, ctx);
    return;
  }
  PARTDB_CHECK(false);
}

void SessionActor::StartTxn(SessionSubmit s, ActorContext& ctx) {
  const TxnId id = s.txn_id;
  Txn& t = txns_.Emplace(id);
  TxnRouting route = router_(s.proc, *s.args);
  PARTDB_CHECK(!route.participants.empty());
  PARTDB_CHECK(route.rounds >= 1);
  for (PartitionId part : route.participants) {
    PARTDB_CHECK(part >= 0 && static_cast<size_t>(part) < topology_.partition_primary.size());
  }
  t.mp.Start({.txn_id = id, .proc = s.proc, .args = std::move(s.args),
              .participants = std::move(route.participants), .num_rounds = route.rounds,
              .can_abort = route.can_abort});
  t.cb = std::move(s.cb);
  t.issue_time = s.submit_time;
  SendCurrent(t, ctx);
}

void SessionActor::SendCurrent(const Txn& t, ActorContext& ctx) {
  const ClientRequest& r = t.mp.request();
  if (!t.mp.single_partition() && !caps_.client_coordinated_2pc) {
    ctx.Send(topology_.coordinator, r);
    return;
  }
  // Under locking the session is the 2PC coordinator (paper §4.3).
  for (PartitionId p : r.participants) {
    ctx.Send(topology_.partition_primary[p], t.mp.Fragment(node_id()));
  }
}

void SessionActor::OnFragmentResponse(FragmentResponse& r, ActorContext& ctx) {
  Txn* found = txns_.Find(r.txn_id);
  if (found == nullptr) return;  // stale
  Txn& t = *found;
  // Stale: from an earlier attempt or round. Locking partitions carry no
  // cascade epoch, so the retry attempt is this filter's generation.
  if (r.attempt != t.mp.attempt() || r.round != t.mp.round()) return;
  if (!t.mp.Collect(std::move(r))) return;
  if (t.mp.aborted()) {
    const auto& resp = t.mp.responses();
    const bool system_abort = std::any_of(resp.begin(), resp.end(),
                                          [](const FragmentResponse& f) { return f.system_abort; });
    FinishLockingTxn(t, false, /*retry=*/system_abort, ctx);
    return;
  }
  if (!t.mp.last_round()) {
    t.mp.NextRound(*continuations_);
    SendCurrent(t, ctx);
    return;
  }
  FinishLockingTxn(t, true, false, ctx);
}

void SessionActor::FinishLockingTxn(Txn& t, bool commit, bool retry, ActorContext& ctx) {
  const TxnId id = t.mp.txn_id();
  for (PartitionId p : t.mp.request().participants) {
    ctx.Send(topology_.partition_primary[p], DecisionMessage{id, t.mp.attempt(), commit});
  }
  if (retry) {
    metrics_->txn_retries++;
    t.mp.Retry();
    // Jittered backoff so the same transactions do not re-deadlock in
    // lockstep (the paper resolves distributed deadlock by timeout; retry
    // policy is the client library's).
    const Duration backoff = static_cast<Duration>(rng_.Uniform(Micros(500)));
    ctx.SetTimer(backoff, TimerFire{id, t.mp.attempt()});
    return;
  }
  if (commit && topology_.durable_notices) {
    // Group commit: the reply waits until every participant has logged it.
    t.mp.AwaitNotices();
    return;
  }
  Complete(id, commit, commit ? t.mp.Result() : nullptr, t.mp.attempt() + 1, ctx);
}

void SessionActor::Complete(TxnId id, bool committed, PayloadPtr result, uint32_t attempts,
                            ActorContext& ctx) {
  Txn* found = txns_.Find(id);
  PARTDB_CHECK(found != nullptr);
  Txn& t = *found;

  const bool sp = t.mp.single_partition();
  const ProcId proc = t.mp.request().proc;
  const Duration lat = ctx.now() - t.issue_time;
  if (committed) {
    metrics_->committed++;
    if (sp) {
      metrics_->sp_committed++;
    } else {
      metrics_->mp_committed++;
    }
  } else {
    metrics_->user_aborts++;
  }
  if (sp) {
    metrics_->sp_latency.Add(lat);
  } else {
    metrics_->mp_latency.Add(lat);
  }
  if (static_cast<size_t>(proc) >= metrics_->procs.size()) metrics_->procs.resize(proc + 1);
  Metrics::ProcOutcomes& po = metrics_->procs[proc];
  if (committed) {
    po.committed++;
  } else {
    po.user_aborts++;
  }
  po.latency.Add(lat);

  TxnResult r;
  r.committed = committed;
  r.latency_ns = lat;
  r.attempts = attempts;
  r.payload = committed ? std::move(result) : nullptr;

  // The admission slot frees before the callback: a closed loop's
  // resubmit-from-callback reuses the slot this transaction held, so
  // max_inflight = 1 sustains a closed loop.
  {
    MutexLock lock(mu_);
    PARTDB_CHECK(admitted_ > 0);
    --admitted_;
  }

  // Recycle the entry before the callback runs, so a closed loop's
  // resubmit-from-callback picks it straight back up.
  TxnCallback cb = std::move(t.cb);
  txns_.Erase(id);

  // The callback runs before outstanding_ drops: a Drain that returns must
  // observe every completion's side effects (it may also Submit again —
  // closed-loop drivers — which keeps the session non-drained, correctly).
  if (cb) cb(r);
  {
    // Notify under the lock, same teardown protocol as
    // RemoteSession::OnResponse: actors are pooled in Database and outlive
    // session handles today, but that invariant lives far from here — don't
    // let this path depend on it. Only the ->0 edge can wake a waiter.
    MutexLock lock(mu_);
    PARTDB_CHECK(outstanding_ > 0);
    --outstanding_;
    if (outstanding_ == 0) drained_cv_.NotifyAll();
  }
}

}  // namespace partdb

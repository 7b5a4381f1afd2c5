// SessionActor: the one client-library ingress actor of the system — the
// paper's client library (§3.1/§4.3) as an actor bound into the cluster. It
// owns the in-flight bookkeeping for every transaction submitted through it:
// single-partition invocations go straight to the owning partition,
// multi-partition ones go through the central coordinator under
// blocking/speculation, and under locking the actor itself runs the 2PC
// rounds (an MpRound, shared with the central coordinator) and retries
// deadlock victims with jittered backoff. Both ingress styles build on it:
//
//  - open loop: the db layer's Session handle (any number of transactions in
//    flight, Submit from any thread),
//  - closed loop: the db layer's RunClosedLoop driver (at most one in
//    flight per logical client, the completion callback submits the next
//    request).
//
// Submissions arriving from foreign threads are queued and drained on the
// actor's own worker. Submissions made from within one of this actor's own
// handlers (a completion callback resubmitting — the closed-loop pattern)
// start inline, with no extra wake-up message and no extra CPU charge, so a
// closed loop over a session costs exactly what the legacy dedicated client
// actor used to cost — in the simulator this keeps metrics bit-for-bit
// identical to the pre-session harness.
#ifndef PARTDB_CLIENT_SESSION_ACTOR_H_
#define PARTDB_CLIENT_SESSION_ACTOR_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cc/scheme_registry.h"
#include "common/mutex.h"
#include "client/routing.h"
#include "common/rng.h"
#include "coord/mp_round.h"
#include "coord/txn_continuations.h"
#include "engine/cost_model.h"
#include "runtime/actor.h"
#include "runtime/metrics.h"

namespace partdb {

/// Outcome of one transaction, as observed by the submitting session.
struct TxnResult {
  /// True when the transaction committed; false means a user abort (system
  /// aborts — deadlock victims, timeouts — are retried internally and never
  /// surface here), or a refusal (`rejected`).
  bool committed = false;
  /// Remote sessions only: the server refused the transaction (no session
  /// slot free, or its admission bound) and never executed it.
  bool rejected = false;
  /// Submission-to-completion latency (wall-clock in parallel mode, virtual
  /// time in simulation).
  Duration latency_ns = 0;
  /// 1 + the number of system-induced retries this transaction needed.
  uint32_t attempts = 1;
  /// Last round's result payload (engine-defined; null on abort).
  PayloadPtr payload;
};

/// Runs on the session's worker thread (parallel mode) or inside the sim
/// pump (simulated mode). Must not block; it may submit new transactions.
using TxnCallback = std::function<void(const TxnResult&)>;

/// Outcome of one Submit call. `accepted == false` is the bounded-in-flight
/// overload signal: the session already has max_inflight transactions
/// admitted, the submission was NOT enqueued, and the callback will never
/// run. Open-loop drivers surface the count; closed loops never trip it
/// (a completing transaction releases its slot before the completion
/// callback resubmits).
struct SubmitResult {
  bool accepted = false;
  TxnId txn_id = kInvalidTxn;
};

/// Derives routing facts for a registered procedure invocation (the db layer
/// passes its ProcedureRegistry's router). Must be deterministic in the
/// arguments.
using ProcRouter = std::function<TxnRouting(ProcId proc, const Payload& args)>;

class SessionActor : public Actor {
 public:
  /// `caps` is the running scheme's capability set: under a
  /// client_coordinated_2pc scheme (locking §4.3) this actor runs the 2PC
  /// rounds itself, with `continuations` supplying coordinator-style round
  /// inputs (the db layer passes its ProcedureRegistry). `router` must be
  /// set.
  SessionActor(std::string name, ProcRouter router, TxnContinuations* continuations,
               Topology topology, CcSchemeCapabilities caps, const CostModel& cost,
               uint64_t seed);

  void set_metrics(Metrics* m) { metrics_ = m; }

  /// Admission bound: at most `n` transactions admitted-and-uncompleted at a
  /// time (0 = unlimited). Set before traffic starts (Database::Open /
  /// connection setup), not concurrently with submissions.
  void set_max_inflight(uint64_t n) { max_inflight_ = n; }

  /// Queues one invocation and wakes the actor (at most one wake per pending
  /// batch: submissions arriving while a wake is already scheduled coalesce
  /// into it). Thread-safe. Routing comes from the actor's ProcRouter.
  SubmitResult Submit(ProcId proc, PayloadPtr args, TxnCallback cb);

  /// Queued + in-flight transactions. Thread-safe.
  uint64_t outstanding() const {
    MutexLock lock(mu_);
    return outstanding_;
  }

  /// Ingress wake-ups scheduled so far (coalesced mailbox wakes: a burst of
  /// foreign-thread submissions costs one). Thread-safe; test observability.
  uint64_t ingress_wakes() const {
    MutexLock lock(mu_);
    return ingress_wakes_;
  }

  /// Blocks until outstanding() == 0 (parallel mode; the sim pump drains
  /// simulated sessions). Returns false on timeout.
  bool WaitDrained(std::chrono::steady_clock::duration timeout);

  /// The actor's private random stream (client stream `index` when seeded via
  /// ClientStreamSeed). Owned by the actor's worker: callers may touch it
  /// only from within this actor's callbacks, or before any traffic reaches
  /// the actor (a closed-loop driver generating its first request).
  Rng& rng() { return rng_; }

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override;

 private:
  struct PendingSubmit {
    TxnId id = kInvalidTxn;
    ProcId proc = kInvalidProc;
    PayloadPtr args;
    TxnCallback cb;
    Time submit_time = 0;  // latency measures from submission, not pickup
  };

  struct Txn {
    MpRound mp;  // the request; under locking also its 2PC rounds
    TxnCallback cb;
    Time issue_time = 0;
  };

  SubmitResult Enqueue(PendingSubmit p);
  void DrainSubmissions(ActorContext& ctx);
  void StartTxn(TxnId id, PendingSubmit p, ActorContext& ctx);
  void SendCurrent(const Txn& t, ActorContext& ctx);
  void OnFragmentResponse(FragmentResponse& r, ActorContext& ctx);
  void FinishLockingTxn(TxnId id, Txn& t, bool commit, bool retry, ActorContext& ctx);
  void Complete(TxnId id, bool committed, PayloadPtr result, uint32_t attempts,
                ActorContext& ctx);

  ProcRouter router_;
  TxnContinuations* continuations_;
  Topology topology_;
  CcSchemeCapabilities caps_;
  CostModel cost_;
  Metrics* metrics_ = nullptr;
  Rng rng_;

  uint64_t max_inflight_ = 0;  // 0 = unlimited; set before traffic

  // Shared with submitting threads.
  mutable Mutex mu_;
  CondVar drained_cv_;
  std::vector<PendingSubmit> pending_ PARTDB_GUARDED_BY(mu_);
  uint64_t outstanding_ PARTDB_GUARDED_BY(mu_) = 0;
  /// Admitted-and-uncompleted transactions (the admission-control counter).
  /// Unlike outstanding_, this drops *before* the completion callback runs,
  /// so a closed loop's resubmit-from-callback reuses the slot it held.
  uint64_t admitted_ PARTDB_GUARDED_BY(mu_) = 0;
  /// True while an ingress wake is scheduled but not yet drained: further
  /// submissions coalesce into the pending wake instead of scheduling more.
  bool wake_pending_ PARTDB_GUARDED_BY(mu_) = false;
  uint64_t ingress_wakes_ PARTDB_GUARDED_BY(mu_) = 0;
  uint32_t next_seq_ PARTDB_GUARDED_BY(mu_) = 0;

  // Owned by the actor's worker (or the sim pump).
  std::unordered_map<TxnId, Txn> txns_;
  /// Recycled txns_ map nodes: Complete detaches the finished node and parks
  /// it here (with its Txn's vector capacities intact), StartTxn reattaches
  /// it under the new id — the steady-state closed loop allocates no map
  /// nodes at all.
  std::vector<std::unordered_map<TxnId, Txn>::node_type> txn_stash_;
  /// DrainSubmissions' ping-pong buffer: swapped with pending_ under mu_,
  /// iterated without the lock, then kept for its capacity.
  std::vector<PendingSubmit> drain_scratch_;

  // Set for the duration of OnMessage so Enqueue can detect a submission made
  // from within one of this actor's own handlers and start it inline.
  std::atomic<std::thread::id> handler_thread_{};
  ActorContext* handler_ctx_ = nullptr;
};

}  // namespace partdb

#endif  // PARTDB_CLIENT_SESSION_ACTOR_H_

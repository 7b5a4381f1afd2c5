// SessionActor: the one client-library ingress actor of the system — the
// paper's client library (§3.1/§4.3) as an actor bound into a database. It
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
// A submission from a foreign thread is admitted and numbered under the
// session mutex, then travels to the actor as one SessionSubmit message it
// sends itself: in parallel mode one push into its worker's mailbox, in the
// simulator a loopback delivery at the submitting instant. Submissions made
// from within one of this actor's own handlers (a completion callback
// resubmitting — the closed-loop pattern) start inline, with no message and
// no extra CPU charge; the sim figure goldens pin the resulting timeline.
#ifndef PARTDB_CLIENT_SESSION_ACTOR_H_
#define PARTDB_CLIENT_SESSION_ACTOR_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "cc/scheme_registry.h"
#include "common/mutex.h"
#include "client/routing.h"
#include "common/rng.h"
#include "common/txn_table.h"
#include "coord/mp_round.h"
#include "coord/txn_continuations.h"
#include "engine/cost_model.h"
#include "runtime/actor.h"
#include "runtime/metrics.h"

namespace partdb {

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

  /// Admits one invocation and sends it to the actor as a SessionSubmit
  /// (started inline when called from this actor's own handler).
  /// Thread-safe. Routing comes from the actor's ProcRouter.
  SubmitResult Submit(ProcId proc, PayloadPtr args, TxnCallback cb);

  /// Queued + in-flight transactions. Thread-safe.
  uint64_t outstanding() const {
    MutexLock lock(mu_);
    return outstanding_;
  }

  /// Admitted transactions whose completion callback has not started yet
  /// (see admitted_). Thread-safe.
  uint64_t admitted() const {
    MutexLock lock(mu_);
    return admitted_;
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
  struct Txn {
    MpRound mp;  // the request; under locking also its 2PC rounds
    TxnCallback cb;
    Time issue_time = 0;

    /// Drops the payloads and the callback's captures; the round's buffers
    /// keep their capacity for the entry's next transaction.
    void Reset() {
      mp.Release();
      cb = nullptr;
      issue_time = 0;
    }
  };

  void StartTxn(SessionSubmit s, ActorContext& ctx);
  void SendCurrent(const Txn& t, ActorContext& ctx);
  void OnFragmentResponse(FragmentResponse& r, ActorContext& ctx);
  void FinishLockingTxn(Txn& t, bool commit, bool retry, ActorContext& ctx);
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
  uint64_t outstanding_ PARTDB_GUARDED_BY(mu_) = 0;
  /// Admitted-and-uncompleted transactions (the admission-control counter).
  /// Unlike outstanding_, this drops *before* the completion callback runs,
  /// so a closed loop's resubmit-from-callback reuses the slot it held.
  uint64_t admitted_ PARTDB_GUARDED_BY(mu_) = 0;
  uint32_t next_seq_ PARTDB_GUARDED_BY(mu_) = 0;

  // Owned by the actor's worker (or the sim pump).
  TxnTable<Txn> txns_;

  // Set for the duration of OnMessage so Submit can detect a submission made
  // from within one of this actor's own handlers and start it inline.
  std::atomic<std::thread::id> handler_thread_{};
  ActorContext* handler_ctx_ = nullptr;
};

}  // namespace partdb

#endif  // PARTDB_CLIENT_SESSION_ACTOR_H_

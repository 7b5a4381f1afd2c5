// Concurrency-control scheme interface. A scheme decides when fragments
// execute, when results become visible, and what happens on abort. Two
// classes implement the registered schemes: SpeculativeCc, one FIFO queue
// executor whose policies give blocking (§4.1), speculation (§4.2), OCC
// (§5.7) and mvcc (snapshot reads beside a stalled MP); and LockingCc
// (§4.3). Both answer a transaction through ReplySp / VoteMp below. Schemes
// are selected by name through the CcSchemeRegistry (cc/scheme_registry.h);
// concrete types are named only by their registrant.
#ifndef PARTDB_CC_CC_SCHEME_H_
#define PARTDB_CC_CC_SCHEME_H_

#include <memory>

#include "engine/cost_model.h"
#include "engine/engine.h"
#include "msg/message.h"
#include "runtime/metrics.h"

namespace partdb {

/// Services a scheme uses, implemented by PartitionActor. All CPU consumed
/// through these calls is charged to the partition's virtual CPU at the
/// moment of the call, so streams of work within one event are serialized.
class PartitionExec {
 public:
  virtual ~PartitionExec() = default;

  /// Runs one fragment on the engine and charges its execution cost
  /// (plus the flat abort cost if the fragment user-aborts). The work
  /// receipt is copied to `receipt` when non-null.
  virtual ExecResult RunFragment(const FragmentRequest& frag, UndoBuffer* undo,
                                 WorkMeter* receipt = nullptr) = 0;

  /// Charges raw CPU time.
  virtual void Charge(Duration d) = 0;

  /// Charges lock-manager work and records the §5.6 breakdown.
  virtual void ChargeLockWork(const WorkMeter& m) = 0;

  /// Charges the cost of rolling back `records` undo records.
  virtual void ChargeUndo(size_t records) = 0;

  /// Sends a message at the current virtual instant.
  virtual void Send(NodeId dst, MessageBody body) = 0;

  /// Delivers a TimerFire to this partition after `d` ns.
  virtual void SetTimer(Duration d, TimerFire t) = 0;

  // The commit stream: one call per commit event, each fanned out to the
  // verifier's commit log (when enabled), the command log (when durability
  // is on) and the backups (when replicated). A reply that must be durable
  // first (paper §3.2/§3.3) waits for one count of acks: each backup's, plus
  // the local log's under group commit. None of them charges CPU.

  /// A single-partition transaction committed: logs `rec`, ships it with
  /// its outcome known, and sends `reply` to `dst` once it is durable.
  virtual void CommitSp(CommitRecord rec, NodeId dst, MessageBody reply) = 0;

  /// A multi-partition transaction voted commit: ships `rec` with its
  /// outcome unknown and sends `vote` to `dst` once the backups have it.
  virtual void PrepareMp(CommitRecord rec, NodeId dst, MessageBody vote) = 0;

  /// The 2PC outcome of a prepared transaction arrived: on commit logs
  /// `rec` (under group commit a DurableNotice answers the decider once the
  /// log has it); either way tells the backups the outcome.
  virtual void DecideMp(const CommitRecord& rec, bool commit) = 0;

  virtual Engine& engine() = 0;
  virtual const CostModel& cost() const = 0;
  virtual Metrics& metrics() = 0;
  virtual PartitionId partition_id() const = 0;
};

/// Answers the executed single-partition transaction `f` with result `r`. On
/// a user abort rolls back `undo` (when non-null) and sends the abort; else
/// clears `undo` (when non-null) and commits `f` through CommitSp.
void ReplySp(PartitionExec* part, const FragmentRequest& f, const ExecResult& r, UndoBuffer* undo);

/// Answers one executed round `f` of the multi-partition transaction `rec`.
/// A commit vote (last round, no user abort) charges the 2PC vote and goes
/// out through PrepareMp; an abort vote or a non-final round is sent as is.
/// Returns the response it sent.
FragmentResponse VoteMp(PartitionExec* part, const FragmentRequest& f, const ExecResult& r,
                        const CommitRecord& rec, uint32_t epoch = 0,
                        TxnId depends_on = kInvalidTxn);

class CcScheme {
 public:
  virtual ~CcScheme() = default;

  /// A fragment (single-partition request or one round of a multi-partition
  /// transaction) has arrived.
  virtual void OnFragment(FragmentRequest frag) = 0;

  /// A 2PC decision has arrived from the coordinator (or client-coordinator).
  virtual void OnDecision(const DecisionMessage& d) = 0;

  /// A timer set via PartitionExec::SetTimer has fired.
  virtual void OnTimer(const TimerFire& /*t*/) {}

  /// True when no transaction is active or queued (used by tests to verify
  /// quiescence).
  virtual bool Idle() const = 0;
};

}  // namespace partdb

#endif  // PARTDB_CC_CC_SCHEME_H_

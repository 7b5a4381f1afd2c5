// Message types exchanged between simulated processes. One std::variant per
// message keeps dispatch explicit and copy costs visible.
#ifndef PARTDB_MSG_MESSAGE_H_
#define PARTDB_MSG_MESSAGE_H_

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "common/types.h"
#include "msg/payload.h"

namespace partdb {

/// Client -> coordinator: run a multi-partition stored procedure.
struct ClientRequest {
  TxnId txn_id = kInvalidTxn;
  uint32_t attempt = 0;
  ProcId proc = kInvalidProc;  // registry id
  PayloadPtr args;
  std::vector<PartitionId> participants;
  int num_rounds = 1;
  bool can_abort = false;  // user abort possible: undo required even on fast paths
};

/// One unit of work for one partition: this partition's share of one
/// communication round. The 2PC prepare is piggybacked via `last_round`.
struct FragmentRequest {
  TxnId txn_id = kInvalidTxn;
  uint32_t attempt = 0;
  uint64_t global_seq = 0;  // coordinator-assigned order (multi-partition only)
  int round = 0;
  bool last_round = true;
  bool multi_partition = false;
  bool can_abort = false;
  NodeId coordinator = kInvalidNode;  // who gets the response (coord or client)
  ProcId proc = kInvalidProc;         // registry id, stamped into the command log
  PayloadPtr args;                    // full stored-procedure arguments
  PayloadPtr round_input;             // coordinator-computed input for this round
};

enum class Vote : uint8_t { kNone = 0, kCommit = 1, kAbort = 2 };

/// Partition -> coordinator/client: result of one fragment.
struct FragmentResponse {
  TxnId txn_id = kInvalidTxn;
  uint32_t attempt = 0;
  int round = 0;
  PartitionId partition = -1;
  Vote vote = Vote::kNone;       // set on the last round (2PC vote)
  TxnId depends_on = kInvalidTxn;  // speculative result: valid only if that txn commits
  /// Partition-local cascade epoch: bumped each time the partition processes
  /// an abort decision. The coordinator drops responses whose epoch is older
  /// than the aborts it has sent to that partition (stale speculation).
  uint32_t epoch = 0;
  /// Abort vote caused by deadlock victim selection or a distributed-deadlock
  /// timeout (locking scheme): the client-coordinator should retry.
  bool system_abort = false;
  PayloadPtr result;
};

/// Coordinator/client -> partition: 2PC outcome.
struct DecisionMessage {
  TxnId txn_id = kInvalidTxn;
  uint32_t attempt = 0;
  bool commit = true;
};

/// Partition -> client: final result of a single-partition transaction, or
/// coordinator -> client: final result of a multi-partition transaction.
struct ClientResponse {
  TxnId txn_id = kInvalidTxn;
  uint32_t attempt = 0;
  bool committed = true;  // false = user abort (not retried)
  PayloadPtr result;
};

/// One transaction at one partition, as a serial replay needs it. The same
/// record feeds the verifier's commit log, the durable command log and the
/// backups (a multi-partition one ships at vote time, before its outcome).
struct CommitRecord {
  TxnId txn_id = kInvalidTxn;
  bool multi_partition = false;
  ProcId proc = kInvalidProc;  // registry id; recovery re-resolves it by name
  PayloadPtr args;
  std::vector<PayloadPtr> round_inputs;  // entry r = input for round r (null for 0)
};

/// Primary -> backup: ship one transaction for durability (paper 2.2/3.2).
struct ReplicaShip {
  uint64_t order_seq = 0;
  bool outcome_known = true;  // SP txns ship committed; MP ship at vote time
  CommitRecord rec;
};

/// Primary -> backup: outcome for a previously shipped MP transaction.
struct ReplicaDecision {
  TxnId txn_id = kInvalidTxn;
  bool commit = true;
};

/// Backup -> primary: durability acknowledgment.
struct ReplicaAck {
  uint64_t order_seq = 0;
};

/// Self-scheduled timer (lock-wait timeouts). Stale timers are ignored by
/// matching `generation` against the current wait epoch.
struct TimerFire {
  TxnId txn_id = kInvalidTxn;
  uint64_t generation = 0;
};

/// Participant -> the sender of a commit decision (the coordinator, or the
/// session under locking): the decided record is logged (group commit).
struct DurableNotice {
  TxnId txn_id = kInvalidTxn;
};

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

/// Session -> itself: one transaction submitted from outside the session's
/// own handlers, admitted and numbered already, to be started on the
/// session's worker.
struct SessionSubmit {
  TxnId txn_id = kInvalidTxn;
  ProcId proc = kInvalidProc;
  PayloadPtr args;
  Time submit_time = 0;  // latency measures from submission, not pickup
  TxnCallback cb;
};

/// Log writer -> its partition: every record appended through `through_seq`
/// is durable (group commit; after a test's PartitionLog::Crash, the records
/// were dropped instead, and the report only lets their replies go).
struct LogDurable {
  uint64_t through_seq = 0;
};

using MessageBody =
    std::variant<ClientRequest, FragmentRequest, FragmentResponse, DecisionMessage,
                 ClientResponse, ReplicaShip, ReplicaDecision, ReplicaAck, TimerFire,
                 DurableNotice, LogDurable, SessionSubmit>;

struct Message {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  MessageBody body;
};

/// Approximate wire size of a message body, for the bandwidth model.
size_t MessageByteSize(const MessageBody& body);

/// Short human-readable tag for debugging/tracing.
const char* MessageTypeName(const MessageBody& body);

}  // namespace partdb

#endif  // PARTDB_MSG_MESSAGE_H_

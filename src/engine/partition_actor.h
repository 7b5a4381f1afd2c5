// PartitionActor: a primary partition process. Hosts the engine (real data),
// the installed concurrency-control scheme, and primary-side replication.
// Implements the PartitionExec services the schemes run against.
#ifndef PARTDB_ENGINE_PARTITION_ACTOR_H_
#define PARTDB_ENGINE_PARTITION_ACTOR_H_

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cc/cc_scheme.h"
#include "common/txn_table.h"
#include "engine/cost_model.h"
#include "engine/engine.h"
#include "runtime/actor.h"
#include "runtime/metrics.h"

namespace partdb {

class PartitionLog;

class PartitionActor : public Actor, public PartitionExec {
 public:
  PartitionActor(std::string name, PartitionId pid, std::unique_ptr<Engine> engine,
                 const CostModel& cost, Metrics* metrics)
      : Actor(std::move(name)),
        pid_(pid),
        engine_(std::move(engine)),
        cost_(cost),
        metrics_(metrics) {}

  /// Must be called once before the simulation starts.
  void InstallScheme(std::unique_ptr<CcScheme> scheme) { scheme_ = std::move(scheme); }
  void SetBackups(std::vector<NodeId> backups) { backups_ = std::move(backups); }
  /// Keeps every committed record in commit_log(), in local commit order, so
  /// tests can replay it serially on a fresh engine (no cost — diagnostic).
  void EnableCommitLog() { log_commits_ = true; }
  /// Routes every committed transaction into the durable command log
  /// (durability tier; `log` must outlive the actor). With `hold_replies`
  /// (group commit) each held reply also waits for the log's LogDurable
  /// covering its record, a committed multi-partition decision answers its
  /// decider with a DurableNotice once logged, and the partition closes its
  /// open log batch whenever its worker goes idle (OnIdle).
  void InstallDurabilityLog(PartitionLog* log, bool hold_replies) {
    durability_log_ = log;
    hold_for_log_ = hold_replies;
  }

  /// Runs `snapshot` at this partition's next point between transactions:
  /// at once if the scheme is idle, else right after the message that
  /// empties it. Meanwhile new transactions (round-0 fragments) park in
  /// arrival order and are admitted right after; continuations, decisions,
  /// timers and acks pass. Owning worker only, one request at a time.
  void RunAtIdlePoint(std::function<void()> snapshot);

  CcScheme& cc() { return *scheme_; }
  const std::vector<CommitRecord>& commit_log() const { return commit_log_; }

  // PartitionExec:
  ExecResult RunFragment(const FragmentRequest& frag, UndoBuffer* undo,
                         WorkMeter* receipt = nullptr) override;
  void Charge(Duration d) override;
  void ChargeLockWork(const WorkMeter& m) override;
  void ChargeUndo(size_t records) override;
  void Send(NodeId dst, MessageBody body) override;
  void SetTimer(Duration d, TimerFire t) override;
  void CommitSp(CommitRecord rec, NodeId dst, MessageBody reply) override;
  void PrepareMp(CommitRecord rec, NodeId dst, MessageBody vote) override;
  void DecideMp(const CommitRecord& rec, bool commit) override;
  Engine& engine() override { return *engine_; }
  const CostModel& cost() const override { return cost_; }
  Metrics& metrics() override { return *metrics_; }
  PartitionId partition_id() const override { return pid_; }

  /// Group commit: nothing more can join the open log batch until the next
  /// message arrives, so the writer need not wait out its window.
  void OnIdle() override;

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override;

 private:
  /// A reply held until its record is durable: acked by every backup and,
  /// under group commit, in the local log.
  struct Held {
    int acks_remaining = 0;
    NodeId dst = kInvalidNode;
    MessageBody body;

    void Reset() { *this = Held{}; }
  };
  struct LogWait {
    uint64_t log_seq = 0;
    uint64_t hold = 0;
  };

  /// Appends a committed record to the command log and the commit log.
  /// Returns its log sequence when replies wait for the log, else 0.
  uint64_t AppendToLogs(const CommitRecord& rec);
  /// Ships `rec` to every backup and holds `body` (see Hold).
  void ShipThenSend(bool outcome_known, CommitRecord rec, uint64_t log_seq, NodeId dst,
                    MessageBody body);
  /// Sends `body` to `dst` once `backup_acks` ReplicaAcks for the returned
  /// hold seq have arrived and, when `log_seq` is nonzero, the LogDurable
  /// covering it; at once when there is nothing to wait for.
  uint64_t Hold(int backup_acks, uint64_t log_seq, NodeId dst, MessageBody body);
  /// Counts one ack against hold `hold`; the last one sends the reply.
  void Ack(uint64_t hold);
  /// Runs the pending RunAtIdlePoint snapshot, then admits what it parked.
  void TakeSnapshot();

  /// The results of the last kRecentResults fragments RunFragment ran,
  /// oldest overwritten first. They exist so that a result is freed on this
  /// thread, which allocated it: the session drops its reference on its own
  /// worker, and the ring's is then the last, released here when the slot
  /// comes round again. The allocator serves the next result from this
  /// thread's cache instead of taking back blocks another thread freed,
  /// which costs several times as much. 64 is above the results in flight
  /// per partition in every bench configuration; past it, a result is freed
  /// wherever its last reference drops, as it would be without the ring.
  static constexpr size_t kRecentResults = 64;

  PartitionId pid_;
  std::unique_ptr<Engine> engine_;
  CostModel cost_;
  Metrics* metrics_;
  std::unique_ptr<CcScheme> scheme_;
  std::vector<NodeId> backups_;
  uint64_t next_hold_seq_ = 1;  // also the ReplicaShip order_seq
  TxnTable<Held> held_;
  std::deque<LogWait> log_waits_;  // holds waiting for the log, in log order
  bool log_commits_ = false;
  std::vector<CommitRecord> commit_log_;
  PartitionLog* durability_log_ = nullptr;
  bool hold_for_log_ = false;
  std::function<void()> snapshot_;       // pending RunAtIdlePoint request
  std::vector<FragmentRequest> parked_;  // new transactions waiting for it
  /// Appended since the last CloseBatch (group commit only).
  bool log_batch_open_ = false;
  std::array<PayloadPtr, kRecentResults> recent_results_;
  size_t next_result_ = 0;         // the ring slot RunFragment fills next
  ActorContext* ctx_ = nullptr;    // valid during OnMessage
  NodeId decider_ = kInvalidNode;  // sender of the DecisionMessage being handled
};

}  // namespace partdb

#endif  // PARTDB_ENGINE_PARTITION_ACTOR_H_

// Central coordinator (paper §3.3): globally orders multi-partition
// transactions, drives their communication rounds, and runs two-phase commit
// with the prepare piggybacked on the last fragment, on an MpRound per
// transaction (shared with the locking session). In speculative mode it
// additionally tracks dependencies of speculative results (§4.2.2): a
// transaction commits only once the transactions its results depend on have
// committed; an abort invalidates dependent results, which the partitions
// re-execute and resend. Under group commit a decided commit stays held
// until one DurableNotice per participant says its record is logged. Every
// in-flight transaction, held or not, is one entry of a recycled TxnTable.
#ifndef PARTDB_COORD_COORDINATOR_ACTOR_H_
#define PARTDB_COORD_COORDINATOR_ACTOR_H_

#include <vector>

#include "common/small_vector.h"
#include "common/txn_table.h"
#include "coord/mp_round.h"
#include "coord/txn_continuations.h"
#include "engine/cost_model.h"
#include "msg/message.h"
#include "runtime/actor.h"

namespace partdb {

class CoordinatorActor : public Actor {
 public:
  /// `durable_notices`: commit replies wait for every participant's DurableNotice.
  CoordinatorActor(std::string name, const CostModel& cost, TxnContinuations* continuations,
                   std::vector<NodeId> partition_nodes, bool durable_notices)
      : Actor(std::move(name)),
        cost_(cost),
        continuations_(continuations),
        partition_nodes_(std::move(partition_nodes)),
        durable_notices_(durable_notices),
        expected_epoch_(partition_nodes_.size(), 0) {}

  uint64_t transactions_ordered() const { return next_seq_ - 1; }

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override;

 private:
  struct MpTxn {
    MpRound mp;
    NodeId client = kInvalidNode;
    bool parked = false;  // waiting on an undecided dependency
    /// Decided commit whose reply waits for its DurableNotices. For the
    /// dependency gate and the abort's Forget walk it is decided.
    bool held = false;
    /// Transactions parked on this one's outcome, in parking order.
    SmallVector<TxnId, 4> dependents;

    void Reset() {
      mp.Release();
      client = kInvalidNode;
      parked = false;
      held = false;
      dependents.clear();
    }
  };

  void OnRequest(ClientRequest& r, NodeId src, ActorContext& ctx);
  void OnResponse(FragmentResponse& r, ActorContext& ctx);
  void SendRound(const MpTxn& t, ActorContext& ctx);
  /// Advances `t` if its current round is fully collected and dependencies
  /// allow: next round, commit, or abort.
  void TryAdvance(MpTxn* t, ActorContext& ctx);
  void Decide(MpTxn* t, bool commit, ActorContext& ctx);
  void Reply(const MpTxn& t, bool commit, ActorContext& ctx);

  CostModel cost_;
  TxnContinuations* continuations_;
  std::vector<NodeId> partition_nodes_;
  bool durable_notices_;
  std::vector<uint32_t> expected_epoch_;  // abort decisions sent, per partition

  TxnTable<MpTxn> txns_;  // undecided, and held commits
  uint64_t next_seq_ = 1;
};

}  // namespace partdb

#endif  // PARTDB_COORD_COORDINATOR_ACTOR_H_

#include "engine/replication.h"

#include "common/logging.h"
#include "engine/replay.h"

namespace partdb {

void BackupActor::OnMessage(Message& msg, ActorContext& ctx) {
  if (auto* ship = std::get_if<ReplicaShip>(&msg.body)) {
    ctx.Charge(cost_.partition_msg);
    if (ship->outcome_known) {
      Apply(ship->rec, ctx);
    } else {
      pending_[ship->rec.txn_id] = std::move(ship->rec);
    }
    ctx.Send(msg.src, ReplicaAck{ship->order_seq});
    return;
  }
  if (auto* dec = std::get_if<ReplicaDecision>(&msg.body)) {
    ctx.Charge(cost_.partition_msg);
    auto it = pending_.find(dec->txn_id);
    if (it != pending_.end()) {
      if (dec->commit) Apply(it->second, ctx);
      pending_.erase(it);
    }
    return;
  }
  PARTDB_CHECK(false);  // backups receive only replication traffic
}

void BackupActor::Apply(const CommitRecord& rec, ActorContext& ctx) {
  if (!execute_) {
    // Charge a nominal apply cost proportional to one fragment.
    ctx.Charge(cost_.fragment_base);
    return;
  }
  ReplayRecord(*engine_, rec, [&](const WorkMeter& m, const ExecResult& res) {
    PARTDB_CHECK(!res.aborted);  // only committed transactions are applied
    ctx.Charge(cost_.ExecCost(m));
  });
}

}  // namespace partdb

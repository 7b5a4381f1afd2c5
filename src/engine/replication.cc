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
      // A cascaded MP ships again under the same id before its decision.
      CommitRecord* rec = pending_.Find(ship->rec.txn_id);
      if (rec == nullptr) rec = &pending_.Emplace(ship->rec.txn_id);
      *rec = std::move(ship->rec);
    }
    ctx.Send(msg.src, ReplicaAck{ship->order_seq});
    return;
  }
  if (auto* dec = std::get_if<ReplicaDecision>(&msg.body)) {
    ctx.Charge(cost_.partition_msg);
    // An MP that voted abort was never shipped: its decision finds nothing.
    if (CommitRecord* rec = pending_.Find(dec->txn_id)) {
      if (dec->commit) Apply(*rec, ctx);
      pending_.Erase(dec->txn_id);
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

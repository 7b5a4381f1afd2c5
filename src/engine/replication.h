// Primary/backup replication (paper §2.2, §3.2): a transaction is durable
// once all k replicas have received it. The primary ships transactions in
// commit order; votes and single-partition results are gated on backup acks.
// Backups can optionally re-execute shipped transactions against their own
// engine so tests can verify replica state convergence.
#ifndef PARTDB_ENGINE_REPLICATION_H_
#define PARTDB_ENGINE_REPLICATION_H_

#include <memory>

#include "common/txn_table.h"
#include "engine/cost_model.h"
#include "engine/engine.h"
#include "runtime/actor.h"

namespace partdb {

class BackupActor : public Actor {
 public:
  /// If `execute` is true the backup replays shipped transactions on its own
  /// engine (deterministic replay, paper §4.3); otherwise it only charges the
  /// apply cost and acks.
  BackupActor(std::string name, PartitionId pid, std::unique_ptr<Engine> engine,
              const CostModel& cost, bool execute)
      : Actor(std::move(name)),
        pid_(pid),
        engine_(std::move(engine)),
        cost_(cost),
        execute_(execute) {}

  Engine& engine() { return *engine_; }

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override;

 private:
  void Apply(const CommitRecord& rec, ActorContext& ctx);

  PartitionId pid_;
  std::unique_ptr<Engine> engine_;
  CostModel cost_;
  bool execute_;
  // MP transactions shipped at vote time, awaiting their outcome.
  TxnTable<CommitRecord> pending_;
};

}  // namespace partdb

#endif  // PARTDB_ENGINE_REPLICATION_H_

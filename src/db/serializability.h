// The one serializability check (paper §4: every scheme is conflict
// serializable). CheckSerializable takes every partition's commit log,
// builds the union conflict graph from the procedures' declared access sets
// (Engine::LockSet, the sets the locking scheme locks and the speculative
// executor tracks), requires it to be acyclic, and replays every partition
// together in one topological order through ReplayRecord. Each
// multi-round transaction's round inputs are recomputed from the replayed
// results and must match the recorded ones byte for byte. Tests, the
// self-verifying benches and the recovery tests all call it.
#ifndef PARTDB_DB_SERIALIZABILITY_H_
#define PARTDB_DB_SERIALIZABILITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/procedure_registry.h"
#include "engine/engine.h"
#include "msg/message.h"

namespace partdb {

class Database;

/// One commit log per partition, indexed by PartitionId.
using CommitLogs = std::vector<const std::vector<CommitRecord>*>;

struct SerializabilityReport {
  /// The replayed state hash of each partition (filled only when `error` is
  /// empty).
  std::vector<uint64_t> state_hashes;
  /// Empty when the logs are conflict serializable and replay cleanly;
  /// otherwise the first violation found, naming its transactions.
  std::string error;
};

/// Checks that `logs` are conflict serializable as one history: the union
/// conflict graph is acyclic, every multi-partition record is in each
/// participant's log, no committed transaction user-aborts on replay, and
/// every recomputed round input equals the recorded one. Replays on fresh
/// engines from `factory`.
SerializabilityReport CheckSerializable(const ProcedureRegistry& registry,
                                        const EngineFactory& factory, const CommitLogs& logs);

/// Checks `logs` (one per partition of `db`) with `db`'s procedures and
/// engine factory, then compares each replayed partition with `db`'s live
/// state. Returns the first violation, or "" when there is none.
std::string CheckSerializable(Database& db, const CommitLogs& logs);

/// The same over `db`'s own commit logs (DbOptions::log_commits), after
/// Close.
std::string CheckSerializable(Database& db);

}  // namespace partdb

#endif  // PARTDB_DB_SERIALIZABILITY_H_

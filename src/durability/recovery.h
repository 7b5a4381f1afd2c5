// Parallel crash recovery: scan a log directory, load each partition's
// latest checkpoint, and replay its command log past the checkpoint on a
// pool of replay workers — procedure invocations are re-resolved by *name*
// through the live ProcedureRegistry and re-executed, which is exactly the
// serial-replay serializability checker run against the real engines.
//
// Multi-partition atomicity: a record of MP transaction T at partition p is
// replayed iff every participant q (re-derived from the procedure's router)
// has T durably — in q's log, or in q's checkpoint's cumulative MP list when
// the record itself was truncated behind a checkpoint. A crash between the
// participants' fsyncs leaves T incomplete somewhere; such transactions were
// never acknowledged (group commit gates on all participants) and are
// skipped everywhere, keeping the replayed prefix transactionally
// consistent.
#ifndef PARTDB_DURABILITY_RECOVERY_H_
#define PARTDB_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "db/procedure_registry.h"
#include "durability/command_log.h"
#include "engine/engine.h"

namespace partdb {

struct RecoveryOptions {
  std::string dir;
  int num_partitions = 0;
  /// Replay worker threads (capped at num_partitions; >= 1).
  int workers = 1;
  const ProcedureRegistry* registry = nullptr;
};

struct RecoveryReport {
  bool ok = false;
  std::string error;
  /// Anything found on disk at all (false = fresh directory: nothing to do).
  bool performed = false;
  uint64_t replayed = 0;
  uint64_t skipped_incomplete = 0;  // MP records missing a participant
  uint64_t replay_aborts = 0;       // committed records that aborted on replay (bug!)
  uint64_t checkpoints_loaded = 0;
  uint64_t segments_read = 0;
  uint64_t torn_tails = 0;
  double seconds = 0;
  /// Every distinct transaction whose effects are in the recovered state
  /// (replayed or restored via a checkpoint's MP list is not included —
  /// only ids actually seen in logs/checkpoint lists; used by the
  /// acked-subset crash tests).
  std::vector<TxnId> recovered_txns;
  /// Where each partition's new log incarnation resumes.
  std::vector<LogSeed> seeds;
};

/// Runs recovery against the engines returned by `engine_of` (one call per
/// partition; the engine must not be concurrently accessed — Database::Open
/// recovers before the worker threads start). A fresh/absent directory
/// returns ok with performed == false and identity seeds.
RecoveryReport RecoverDatabase(const RecoveryOptions& options,
                               const std::function<Engine&(PartitionId)>& engine_of);

}  // namespace partdb

#endif  // PARTDB_DURABILITY_RECOVERY_H_

// Microbenchmark workload definition (paper §5.1–§5.4): the knobs of the
// single/multi-partition read-update mix over private per-client key sets,
// with optional conflict-key injection (§5.2), abort injection (§5.3), and
// two-round "general" multi-partition transactions (§5.4) — plus the key
// layout and the engine factory that pre-populates it. The transaction mix
// generator and the registered stored procedure live in kv/kv_procedures.h.
#ifndef PARTDB_KV_KV_WORKLOAD_H_
#define PARTDB_KV_KV_WORKLOAD_H_

#include "engine/engine.h"
#include "kv/kv_engine.h"

namespace partdb {

struct KvWorkloadOptions {
  int num_partitions = 2;
  /// Closed-loop clients the run is sized for: the engine factory pre-creates
  /// each client's private keys, and KvDbOptions opens this many sessions.
  int num_clients = 40;
  int keys_per_txn = 12;  // 6+6 when multi-partition (paper §5.1)
  double mp_fraction = 0.1;
  int mp_rounds = 1;  // 2 reproduces §5.4 (general transactions)
  /// §5.2: probability that a transaction writes the designated conflict key
  /// of one partition. Clients 0..P-1 are pinned to their own partition so
  /// their keys are "nearly always being written".
  double conflict_prob = 0.0;
  bool pin_first_clients = false;
  /// §5.3: probability a transaction user-aborts (at one participant for MP).
  double abort_prob = 0.0;
  /// Read-heavy mixes: probability a transaction reads its keys without
  /// updating them. The draw consumes no randomness at 0, so the default mix
  /// draws the same stream as without the option (the goldens pin it).
  double read_only_fraction = 0.0;
  /// Marks every transaction can_abort so the fast paths record undo
  /// (used by the tspS calibration probe; paper Table 2).
  bool force_undo = false;
};

/// Key for client `c`'s slot `i` on partition `p`.
KvKey MicrobenchKey(int client, PartitionId p, int slot);

/// The contended key of partition `p`: slot 0 of the pinned client `p`.
KvKey ConflictKey(PartitionId p);

/// Engine factory that pre-populates every client's private keys (and the
/// conflict keys) with counter value 0 on the owning partition.
EngineFactory MakeKvEngineFactory(const KvWorkloadOptions& config);

}  // namespace partdb

#endif  // PARTDB_KV_KV_WORKLOAD_H_

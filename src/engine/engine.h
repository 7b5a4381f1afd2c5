// Stored-procedure execution engine interface. One Engine instance owns one
// partition's data. Concrete engines: KvEngine (microbenchmark) and
// TpccEngine. A "fragment" is this partition's share of one communication
// round of a transaction (paper §3.1).
#ifndef PARTDB_ENGINE_ENGINE_H_
#define PARTDB_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/types.h"
#include "engine/work_meter.h"
#include "msg/payload.h"
#include "msg/wire.h"
#include "storage/undo_buffer.h"

namespace partdb {

struct ExecResult {
  bool aborted = false;  // user abort (deterministic for a given transaction)
  PayloadPtr result;
};

/// One lock to acquire before executing a fragment (locking scheme). Lock ids
/// name logical data items: 64-bit hash of (table, key).
struct LockRequest {
  uint64_t lock_id = 0;
  bool exclusive = false;
};

class Engine {
 public:
  virtual ~Engine() = default;

  /// Executes this partition's fragment of `args` for communication round
  /// `round`. `round_input` carries coordinator-computed data from earlier
  /// rounds (null for round 0). Mutations append compensation records to
  /// `undo` when it is non-null; work is tallied into `meter`.
  virtual ExecResult Execute(const Payload& args, int round, const Payload* round_input,
                             UndoBuffer* undo, WorkMeter* meter) = 0;

  /// Appends the ordered lock requests the fragment will need, in the
  /// procedure's natural access order (so lock-order cycles can form, as in
  /// the paper's deadlock experiments).
  virtual void LockSet(const Payload& args, int round, std::vector<LockRequest>* out) const = 0;

  /// Order-independent hash of the full partition state; used by tests to
  /// compare a live partition against a serial replay or a backup replica.
  virtual uint64_t StateHash() const = 0;

  // Checkpoint support (durability tier). Engines that opt in serialize
  // their full mutable partition state into a wire stream and can restore
  // it into a freshly-constructed instance of themselves.
  virtual bool SupportsCheckpoint() const { return false; }
  /// Serializes the partition state. Only called when SupportsCheckpoint().
  virtual void SerializeState(WireWriter& w) const { (void)w; PARTDB_CHECK(false); }
  /// Replaces the partition state with a stream produced by SerializeState.
  /// Returns false on a malformed stream.
  virtual bool RestoreState(WireReader& r) { (void)r; return false; }
};

/// Creates the engine for a given partition (primaries and backups alike).
using EngineFactory = std::function<std::unique_ptr<Engine>(PartitionId)>;

}  // namespace partdb

#endif  // PARTDB_ENGINE_ENGINE_H_

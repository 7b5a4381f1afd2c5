// Microbenchmark stored procedure (paper §5.1): one transaction type that
// reads a set of keys and updates them (here: increments their counters).
// The "general" variant (paper §5.4) splits the work into a read round and a
// write round with coordinator communication between them.
#ifndef PARTDB_KV_KV_ENGINE_H_
#define PARTDB_KV_KV_ENGINE_H_

#include <vector>

#include "common/small_vector.h"
#include "engine/engine.h"
#include "kv/kv_store.h"
#include "msg/wire.h"

namespace partdb {

/// One partition's keys of a KV transaction, with inline room for the
/// paper's 12 (paper §5.1).
using KvKeyList = SmallVector<KvKey, 12>;

/// Arguments of the read/update transaction. Keys are grouped per partition;
/// a single-partition transaction has keys on exactly one partition. The
/// lists are inline up to 12 keys over 2 partitions and spill to the heap
/// beyond that, so a paper-mix draw is one heap block.
/// Wire layout (README "Wire protocol"): a 24-byte fixed header (rounds,
/// flags, abort_at, list count, total key count), one u32 count per
/// partition list, then each key as a 9-byte fixed-width inline string.
struct KvArgs : public Payload {
  SmallVector<KvKeyList, 2> keys;  // indexed by PartitionId
  int rounds = 1;                  // 2 = general transaction (§5.4)
  bool abort_txn = false;          // single-partition user abort
  /// Read the keys without updating them (read-heavy mixes; snapshot-read
  /// schemes serve these without waiting). Bit 1 of the wire flags word, so
  /// encoded sizes are unchanged.
  bool read_only = false;
  PartitionId abort_at = -1;  // multi-partition: partition that aborts locally

  void SerializeTo(WireWriter& w) const override;
};

/// Decodes a KvArgs payload into a fresh `into` (the procedure's args
/// codec). Returns false (and marks the reader corrupt) on a malformed span.
bool DecodeKvArgsInto(WireReader& r, KvArgs* into);

/// Result of a fragment: the values read (pre-update), in key order.
/// Wire layout: u64 count, then each value as a u64.
struct KvResult : public Payload {
  std::vector<uint64_t> values;

  void SerializeTo(WireWriter& w) const override;
};

PayloadPtr DecodeKvResult(WireReader& r);

PayloadPtr DecodeKvRoundInput(WireReader& r);

/// Round-1 input of a general transaction: the round-0 read values, grouped
/// by partition (computed by the coordinator from KvResults).
/// Wire layout: u32 list count + u32 total, one u32 count per list, then
/// each value as a u64.
struct KvRoundInput : public Payload {
  std::vector<std::vector<uint64_t>> values;  // indexed by PartitionId

  void SerializeTo(WireWriter& w) const override;
};

class KvEngine : public Engine {
 public:
  KvEngine(PartitionId pid) : pid_(pid) {}

  KvStore& store() { return store_; }
  const KvStore& store() const { return store_; }

  ExecResult Execute(const Payload& args, int round, const Payload* round_input,
                     UndoBuffer* undo, WorkMeter* meter) override;
  void LockSet(const Payload& args, int round, std::vector<LockRequest>* out) const override;
  uint64_t StateHash() const override { return store_.StateHash(); }

  bool SupportsCheckpoint() const override { return true; }
  void SerializeState(WireWriter& w) const override;
  bool RestoreState(WireReader& r) override;

  /// Lock id for a key (stable across partitions; keys are partitioned so
  /// collisions across partitions do not matter).
  static uint64_t LockId(const KvKey& key) { return key.Hash(); }

 private:
  PartitionId pid_;
  KvStore store_;
};

}  // namespace partdb

#endif  // PARTDB_KV_KV_ENGINE_H_

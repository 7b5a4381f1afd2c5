// Serial replay of committed transactions: the one place a CommitRecord is
// re-executed. The serializability check (db/serializability.h), backups
// applying shipped transactions, and crash recovery all go through
// ReplayRecord.
#ifndef PARTDB_ENGINE_REPLAY_H_
#define PARTDB_ENGINE_REPLAY_H_

#include "engine/engine.h"
#include "msg/message.h"

namespace partdb {

/// Applies one committed transaction to `engine`, round by round and without
/// undo. `on_round(const WorkMeter&, const ExecResult&)` sees each round's
/// work receipt and result.
template <typename OnRound>
void ReplayRecord(Engine& engine, const CommitRecord& rec, OnRound&& on_round) {
  const size_t rounds = rec.round_inputs.empty() ? 1 : rec.round_inputs.size();
  for (size_t r = 0; r < rounds; ++r) {
    WorkMeter m;
    const Payload* input = r < rec.round_inputs.size() ? rec.round_inputs[r].get() : nullptr;
    const ExecResult res = engine.Execute(*rec.args, static_cast<int>(r), input, nullptr, &m);
    on_round(m, res);
  }
}

}  // namespace partdb

#endif  // PARTDB_ENGINE_REPLAY_H_

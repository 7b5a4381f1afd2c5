// Serial replay of committed transactions: the one place a CommitRecord is
// re-executed. Replay verification (tests and the self-verifying benches),
// backups applying shipped transactions, and crash recovery all go through
// ReplayRecord.
#ifndef PARTDB_ENGINE_REPLAY_H_
#define PARTDB_ENGINE_REPLAY_H_

#include <memory>
#include <vector>

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

/// Replays a partition's committed transactions serially, in commit order,
/// on a fresh engine built by `factory`, and returns the resulting state
/// hash. If the system is serializable this must match the live partition.
/// A committed transaction user-aborting on replay is itself a violation;
/// when `aborted_replays` is non-null the count is reported there.
inline uint64_t ReplayStateHash(const EngineFactory& factory, PartitionId pid,
                                const std::vector<CommitRecord>& log,
                                size_t* aborted_replays = nullptr) {
  std::unique_ptr<Engine> engine = factory(pid);
  size_t aborted = 0;
  for (const CommitRecord& rec : log) {
    ReplayRecord(*engine, rec, [&](const WorkMeter&, const ExecResult& res) {
      if (res.aborted) ++aborted;
    });
  }
  if (aborted_replays != nullptr) *aborted_replays = aborted;
  return engine->StateHash();
}

}  // namespace partdb

#endif  // PARTDB_ENGINE_REPLAY_H_

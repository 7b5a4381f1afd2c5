#include "kv/kv_procedures.h"

#include <memory>
#include <utility>

#include "common/logging.h"

namespace partdb {

ProcedureDescriptor KvReadUpdateProcedure(const KvWorkloadOptions& config) {
  ProcedureDescriptor d;
  d.name = kKvReadUpdateProc;
  d.route = [config](const Payload& payload) {
    const auto& args = PayloadCast<KvArgs>(payload);
    TxnRouting r;
    for (PartitionId p = 0; p < static_cast<PartitionId>(args.keys.size()); ++p) {
      if (!args.keys[p].empty()) r.participants.push_back(p);
    }
    r.rounds = args.rounds;
    r.can_abort = config.force_undo || args.abort_txn || args.abort_at >= 0;
    return r;
  };
  d.round_input = [config](const Payload& /*args*/, int round,
                           const std::vector<std::pair<PartitionId, PayloadPtr>>& prev) {
    PARTDB_CHECK(round == 1);
    auto input = std::make_shared<KvRoundInput>();
    input->values.resize(config.num_partitions);
    for (const auto& [p, result] : prev) {
      PARTDB_CHECK(result != nullptr);
      input->values[p] = PayloadCast<KvResult>(*result).values;
    }
    return input;
  };
  SetArgsCodec(d, DecodeKvArgsInto);
  d.decode_result = DecodeKvResult;
  d.decode_round_input = DecodeKvRoundInput;
  return d;
}

PayloadPtr DrawKvTxn(const KvWorkloadOptions& config, int client_index, Rng& rng) {
  const int P = config.num_partitions;
  auto args = std::make_shared<KvArgs>();
  args->keys.resize(P);

  const bool mp = rng.Bernoulli(config.mp_fraction);
  PartitionId home = -1;
  if (mp) {
    // Divide the keys evenly across all partitions (paper: 6 keys on each of
    // the 2 partitions).
    const int per = config.keys_per_txn / P;
    PARTDB_CHECK(per >= 1);
    for (PartitionId p = 0; p < P; ++p) {
      args->keys[p].reserve(per);
      for (int i = 0; i < per; ++i) args->keys[p].push_back(MicrobenchKey(client_index, p, i));
    }
    args->rounds = config.mp_rounds;
  } else {
    if (config.pin_first_clients && client_index < P) {
      home = client_index;  // §5.2: first clients pinned to their partition
    } else {
      home = static_cast<PartitionId>(rng.Uniform(P));
    }
    args->keys[home].reserve(config.keys_per_txn);
    for (int i = 0; i < config.keys_per_txn; ++i) {
      args->keys[home].push_back(MicrobenchKey(client_index, home, i));
    }
  }

  // Conflict-key injection (§5.2). Pinned clients already write the conflict
  // keys (their own slot 0); the other clients hit them with probability p.
  if (config.conflict_prob > 0 && client_index >= P && rng.Bernoulli(config.conflict_prob)) {
    const PartitionId target = mp ? static_cast<PartitionId>(rng.Uniform(P)) : home;
    args->keys[target][0] = ConflictKey(target);
  }

  // Abort injection (§5.3). Transactions are annotated individually (paper
  // §3.2): only a transaction that will abort carries the abort marks the
  // router turns into can_abort, and therefore pays for an undo buffer on
  // the no-speculation fast paths.
  if (config.abort_prob > 0 && rng.Bernoulli(config.abort_prob)) {
    if (mp) {
      args->abort_at = static_cast<PartitionId>(rng.Uniform(P));
    } else {
      args->abort_txn = true;
    }
  }

  // Read-heavy mixes: some transactions only read their keys. Aborting
  // transactions stay writers (the abort paths are what they exercise).
  if (config.read_only_fraction > 0 && !args->abort_txn && args->abort_at < 0 &&
      rng.Bernoulli(config.read_only_fraction)) {
    args->read_only = true;
  }

  return args;
}

InvocationGenerator KvInvocations(const KvWorkloadOptions& config, DbHandle& db) {
  const ProcId proc = db.proc(kKvReadUpdateProc);
  return [config, proc](int client_index, Rng& rng) {
    return Invocation{proc, DrawKvTxn(config, client_index, rng)};
  };
}

DbOptions KvDbOptions(const KvWorkloadOptions& config, const std::string& scheme,
                      RunMode mode, uint64_t seed) {
  DbOptions opts;
  opts.scheme = scheme;
  opts.mode = mode;
  opts.num_partitions = config.num_partitions;
  opts.max_sessions = config.num_clients;
  opts.seed = seed;
  opts.engine_factory = MakeKvEngineFactory(config);
  opts.procedures.push_back(KvReadUpdateProcedure(config));
  return opts;
}

}  // namespace partdb

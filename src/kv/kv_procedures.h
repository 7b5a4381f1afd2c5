// The KV microbenchmark as a registered stored procedure. The descriptor's
// router derives the routing facts (participants, rounds, abort annotation)
// from the KvArgs payload, and its continuation is the §5.4
// general-transaction round input. DrawKvTxn generates the transaction mix
// from closed-loop client c's random stream, which is session slot c's
// stream; the order in which it draws from that stream is part of every
// sim-mode figure run and is pinned by the goldens in
// tests/kv_session_test.cc.
#ifndef PARTDB_KV_KV_PROCEDURES_H_
#define PARTDB_KV_KV_PROCEDURES_H_

#include "db/closed_loop.h"
#include "db/database.h"
#include "db/procedure_registry.h"
#include "kv/kv_workload.h"

namespace partdb {

/// Name the microbench procedure registers under.
inline constexpr const char* kKvReadUpdateProc = "kv_read_update";

/// Descriptor for the paper's read/update microbenchmark procedure (register
/// via DbOptions::procedures; pair with MakeKvEngineFactory and KvArgs built
/// by hand or drawn from DrawKvTxn).
ProcedureDescriptor KvReadUpdateProcedure(const KvWorkloadOptions& config);

/// Draws the next transaction's arguments for closed-loop client
/// `client_index` (paper §5.1–§5.4 mix: single- vs multi-partition split,
/// pinned clients, conflict-key and abort injection) from `rng`, the client's
/// session-slot stream, in the order the kv_session_test goldens pin.
/// Routing is derived from the returned args by the procedure's router.
PayloadPtr DrawKvTxn(const KvWorkloadOptions& config, int client_index, Rng& rng);

/// Closed-loop generator over a database with KvReadUpdateProcedure
/// registered (resolves the ProcId up front; the returned generator is
/// stateless beyond the client's rng). Works on any handle — embedded or
/// remote.
InvocationGenerator KvInvocations(const KvWorkloadOptions& config, DbHandle& db);

/// DbOptions preloaded for the microbenchmark: the engine factory, the
/// read/update procedure, one session slot per closed-loop client, and the
/// workload's partition count. Callers adjust mode/net/cost/etc. before
/// Database::Open.
DbOptions KvDbOptions(const KvWorkloadOptions& config, const std::string& scheme,
                      RunMode mode, uint64_t seed);

}  // namespace partdb

#endif  // PARTDB_KV_KV_PROCEDURES_H_

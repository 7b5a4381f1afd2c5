// TPC-C as registered stored procedures: the five transactions of the
// paper's §5.5 workload expressed as ProcedureDescriptors for the
// Database/Session ingress path. Each descriptor's router re-derives the
// routing facts (home warehouse partition, remote stock/customer
// participants, single round, no-undo user abort) from the TpccArgs payload,
// and DrawTpccTxn generates the transaction mix from closed-loop client c's
// random stream, which is session slot c's stream. The order in which it
// draws from that stream is part of every sim-mode figure run and is pinned
// by the goldens in tests/tpcc_session_test.cc.
#ifndef PARTDB_TPCC_TPCC_PROCEDURES_H_
#define PARTDB_TPCC_TPCC_PROCEDURES_H_

#include <vector>

#include "db/closed_loop.h"
#include "db/database.h"
#include "db/procedure_registry.h"
#include "tpcc/tpcc_engine.h"
#include "tpcc/tpcc_workload.h"

namespace partdb {
namespace tpcc {

/// Name of the procedure `kind` registers under.
const char* TpccProcName(TpccArgs::Kind kind);

/// Routing facts for one TPC-C invocation: home-warehouse partition first,
/// remote stock-supply / customer partitions after (first-seen order), one
/// communication round. NewOrder's invalid-item abort validates before any
/// write (paper modification #1), so no procedure needs undo (`can_abort`
/// stays false).
TxnRouting RouteTpcc(const TpccScale& scale, const Payload& args);

/// Descriptors for all five transactions (register via DbOptions::procedures;
/// pair with MakeTpccEngineFactory).
std::vector<ProcedureDescriptor> TpccProcedures(const TpccScale& scale);

/// One generated transaction: which procedure plus its arguments.
struct TpccDraw {
  TpccArgs::Kind kind;
  PayloadPtr args;
};

/// Draws the next transaction for closed-loop client `client_index` (paper
/// modification #3: each client has an assigned warehouse but picks a random
/// district per request) from `rng`, the client's session-slot stream, in the
/// order the tpcc_session_test goldens pin.
TpccDraw DrawTpccTxn(const TpccWorkloadConfig& config, int client_index, Rng& rng);

/// Closed-loop generator over a database with TpccProcedures registered
/// (resolves the five ProcIds up front; the returned generator is stateless
/// beyond the client's rng). Works on any handle — embedded or remote.
InvocationGenerator TpccInvocations(const TpccWorkloadConfig& config, DbHandle& db);

/// DbOptions preloaded for TPC-C: the engine factory, the five procedures,
/// and the scale's partition count. Callers adjust mode/log_commits/etc.
/// before Database::Open.
DbOptions TpccDbOptions(const TpccScale& scale, const std::string& scheme, RunMode mode,
                        int sessions, uint64_t seed);

}  // namespace tpcc
}  // namespace partdb

#endif  // PARTDB_TPCC_TPCC_PROCEDURES_H_

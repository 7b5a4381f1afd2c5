// Closed-loop driver over sessions: the paper's bench client model expressed
// through the public Database/Session API. N logical clients each own a
// session and keep exactly one transaction in flight — the completion
// callback generates and submits the next one (paper §5: no think time).
// Client c draws from the database's session-slot-c random stream
// (ClientStreamSeed), and resubmissions start inline on the session's actor,
// so in simulated mode a closed loop over sessions reproduces the historical
// dedicated-client harness bit-for-bit (pinned by the kv/tpcc session-test
// goldens). Works on both execution contexts: wall-clock warmup/measure
// windows in parallel mode, virtual-clock windows in simulation.
#ifndef PARTDB_DB_CLOSED_LOOP_H_
#define PARTDB_DB_CLOSED_LOOP_H_

#include <functional>

#include "common/rng.h"
#include "db/db_handle.h"

namespace partdb {

/// One invocation of a registered procedure.
struct Invocation {
  ProcId proc = kInvalidProc;
  PayloadPtr args;
};

/// Generates the next invocation for one logical client. Runs on the
/// session's worker thread (parallel) or inside the sim pump; `rng` is the
/// client's stream, owned by its session.
using InvocationGenerator = std::function<Invocation(int client_index, Rng& rng)>;

/// Generates only arguments, for single-procedure drivers
/// (LoadDriverOptions).
using ArgsGenerator = std::function<PayloadPtr(int client_index, Rng& rng)>;

struct ClosedLoopOptions {
  int num_clients = 8;  // logical closed-loop clients, one session each
  InvocationGenerator next;  // must be set
  Duration warmup = Micros(20000);
  Duration measure = Micros(100000);
};

/// Runs the closed loop for warmup+measure and returns the window's metrics.
/// On return all transactions have drained (parallel mode: the database is
/// still running and can be measured again or closed). `db` may be the
/// embedded Database or a net-tier RemoteDatabase — the loop is written
/// against the transport-independent handle.
Metrics RunClosedLoop(DbHandle& db, const ClosedLoopOptions& options);

}  // namespace partdb

#endif  // PARTDB_DB_CLOSED_LOOP_H_

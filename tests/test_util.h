// Shared test helpers: the closed-loop KV run over the Database/Session
// ingress path. Serializability is checked with CheckSerializable
// (db/serializability.h).
#ifndef PARTDB_TESTS_TEST_UTIL_H_
#define PARTDB_TESTS_TEST_UTIL_H_

#include <memory>
#include <utility>
#include <vector>

#include "db/serializability.h"
#include "kv/kv_procedures.h"

namespace partdb {

/// One closed-loop KV microbenchmark run over Database/Session. The database
/// is kept open (sim mode: quiesced by Close; parallel mode: workers joined)
/// so callers can inspect engines and commit logs afterwards.
struct KvRun {
  std::unique_ptr<Database> db;
  Metrics metrics;
};

/// Opens a database from `opts` (normally KvDbOptions plus test-specific
/// overrides), drives `mb` closed-loop with one session per client, and
/// closes the database.
inline KvRun RunKvClosedLoop(DbOptions opts, const KvWorkloadOptions& mb, Duration warmup,
                             Duration measure) {
  KvRun run;
  run.db = Database::Open(std::move(opts));
  ClosedLoopOptions loop;
  loop.num_clients = mb.num_clients;
  loop.next = KvInvocations(mb, *run.db);
  loop.warmup = warmup;
  loop.measure = measure;
  run.metrics = RunClosedLoop(*run.db, loop);
  run.db->Close();
  return run;
}

/// Points a CommitLogs at each of `logs`.
inline CommitLogs LogsOf(const std::vector<std::vector<CommitRecord>>& logs) {
  CommitLogs out;
  for (const std::vector<CommitRecord>& log : logs) out.push_back(&log);
  return out;
}

}  // namespace partdb

#endif  // PARTDB_TESTS_TEST_UTIL_H_

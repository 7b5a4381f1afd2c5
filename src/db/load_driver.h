// Open-loop load driver: N driver threads, each with its own Session, submit
// a named procedure at a configured aggregate arrival rate with Poisson
// (exponential inter-arrival) spacing — arrivals do not wait for completions,
// so queueing delay shows up as latency instead of throttling the offered
// load (the classic open- vs closed-loop distinction the paper's closed-loop
// harness cannot express). Latency is recorded per completion into
// histograms, timed from each arrival's due time, and merged into the
// report. Parallel mode only: arrivals are scheduled on the wall clock.
#ifndef PARTDB_DB_LOAD_DRIVER_H_
#define PARTDB_DB_LOAD_DRIVER_H_

#include "common/histogram.h"
#include "db/closed_loop.h"
#include "db/db_handle.h"

namespace partdb {

struct LoadDriverOptions {
  int threads = 2;  // submission threads, one session each
  /// Aggregate offered load, transactions per second (split evenly).
  double target_tps = 5000.0;
  /// Submission window (wall clock). Completions are awaited afterwards.
  Duration duration = 500 * kMillisecond;
  ProcId proc = kInvalidProc;
  ArgsGenerator next_args;  // client_index = driver-thread index
  uint64_t seed = 12345;
};

struct LoadDriverReport {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t committed = 0;
  uint64_t user_aborts = 0;
  /// Arrivals the session refused (max_inflight_per_session admission bound):
  /// the overload signal when offered load exceeds capacity. Rejected
  /// arrivals are not counted in `submitted`.
  uint64_t rejected = 0;
  /// First submission to last completion (wall clock).
  Duration elapsed_ns = 0;
  /// Submissions per second of the submission window — what the driver
  /// actually offered; compare against target_tps for scheduling accuracy.
  double offered_tps = 0.0;
  /// Completions per second over elapsed_ns.
  double completed_tps = 0.0;
  /// ns, from each arrival's due time to its completion: a driver thread
  /// running behind its schedule counts the delay against the late arrivals.
  Histogram latency;
};

/// Runs the open-loop load against `db` (RunMode::kParallel; embedded or
/// remote) and blocks until every submitted transaction completed.
LoadDriverReport RunOpenLoop(DbHandle& db, const LoadDriverOptions& options);

}  // namespace partdb

#endif  // PARTDB_DB_LOAD_DRIVER_H_

// Run-wide counters, latency histograms, and time breakdowns. Each measured
// actor records into its own Metrics instance on its own thread; the database
// resets every instance when a measurement window begins and merges them
// when it ends, so counts made outside a window never reach a result.
#ifndef PARTDB_RUNTIME_METRICS_H_
#define PARTDB_RUNTIME_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"

namespace partdb {

struct Metrics {
  // Client-observed completions (measurement window only).
  uint64_t committed = 0;
  uint64_t sp_committed = 0;
  uint64_t mp_committed = 0;
  uint64_t user_aborts = 0;  // user-aborted transactions (count as completions)

  // Scheme internals.
  uint64_t speculative_execs = 0;    // fragments executed speculatively
  uint64_t cascading_reexecs = 0;    // transactions undone+requeued by an abort cascade
  uint64_t lock_fast_path = 0;       // transactions executed without locks
  uint64_t locked_txns = 0;          // transactions that acquired locks
  uint64_t lock_waits = 0;           // lock requests that blocked
  uint64_t local_deadlocks = 0;      // cycles broken by the detector
  uint64_t timeout_aborts = 0;       // distributed deadlock timeouts
  uint64_t txn_retries = 0;          // system-induced retries (deadlock victims)
  uint64_t occ_survivors = 0;        // OCC: speculated txns that survived an abort
  uint64_t mvcc_snapshot_reads = 0;  // MVCC: fragments served from the committed snapshot
  uint64_t mvcc_conflict_waits = 0;  // MVCC: writers queued behind a pending MP access set

  Histogram sp_latency;  // ns, client observed
  Histogram mp_latency;

  /// One registered procedure's completions: `committed + user_aborts`
  /// summed over `procs` equals completions().
  struct ProcOutcomes {
    uint64_t committed = 0;
    uint64_t user_aborts = 0;
    Histogram latency;  // ns, client observed, commits and user aborts alike
  };
  /// Indexed by ProcId; grows on a procedure's first completion in the
  /// window, so procedures with none may be absent from the tail.
  std::vector<ProcOutcomes> procs;

  // Lock-manager time breakdown (ns), for the §5.6 profile.
  Duration lock_acquire_ns = 0;
  Duration lock_release_ns = 0;
  Duration lock_table_ns = 0;

  // Filled in by the database at the end of a measurement window.
  Duration window_ns = 0;
  Duration partition_busy_ns = 0;  // summed over partitions
  Duration coord_busy_ns = 0;
  int num_partitions = 0;

  void Reset() { *this = Metrics{}; }

  /// Accumulates another instance's counters, histograms, per-procedure
  /// outcomes and time breakdowns (per-actor metrics merged at the end of a
  /// window). Leaves the database-filled window fields alone.
  void Merge(const Metrics& o);

  uint64_t completions() const { return committed + user_aborts; }

  /// Completed transactions per second of virtual time.
  double Throughput() const {
    if (window_ns <= 0) return 0.0;
    return static_cast<double>(completions()) / ToSeconds(window_ns);
  }

  /// Mean CPU utilization across partitions, in [0,1].
  double PartitionUtilization() const {
    if (window_ns <= 0 || num_partitions == 0) return 0.0;
    return static_cast<double>(partition_busy_ns) /
           (static_cast<double>(window_ns) * num_partitions);
  }

  double CoordinatorUtilization() const {
    if (window_ns <= 0) return 0.0;
    return static_cast<double>(coord_busy_ns) / static_cast<double>(window_ns);
  }

  /// Fraction of partition CPU time spent in the lock manager (§5.6).
  double LockTimeFraction() const {
    if (partition_busy_ns <= 0) return 0.0;
    return static_cast<double>(lock_acquire_ns + lock_release_ns + lock_table_ns) /
           static_cast<double>(partition_busy_ns);
  }

  std::string Summary() const;
};

/// One Metrics counter: the name Summary() prints and the member.
struct MetricsCounter {
  const char* name;
  uint64_t Metrics::*field;
};

/// The counters, in wire order: Metrics::Merge sums them, Summary() prints
/// them, and the kMetrics frame (net/frame.cc) carries them in this order,
/// so a counter listed here is merged, printed and sent without another
/// edit.
inline constexpr MetricsCounter kMetricsCounters[] = {
    {"committed", &Metrics::committed},
    {"sp_committed", &Metrics::sp_committed},
    {"mp_committed", &Metrics::mp_committed},
    {"user_aborts", &Metrics::user_aborts},
    {"speculative_execs", &Metrics::speculative_execs},
    {"cascading_reexecs", &Metrics::cascading_reexecs},
    {"lock_fast_path", &Metrics::lock_fast_path},
    {"locked_txns", &Metrics::locked_txns},
    {"lock_waits", &Metrics::lock_waits},
    {"local_deadlocks", &Metrics::local_deadlocks},
    {"timeout_aborts", &Metrics::timeout_aborts},
    {"txn_retries", &Metrics::txn_retries},
    {"occ_survivors", &Metrics::occ_survivors},
    {"mvcc_snapshot_reads", &Metrics::mvcc_snapshot_reads},
    {"mvcc_conflict_waits", &Metrics::mvcc_conflict_waits},
};
/// The lock-manager time breakdown, in wire order after the counters.
inline constexpr Duration Metrics::*kMetricsLockTimes[] = {
    &Metrics::lock_acquire_ns,
    &Metrics::lock_release_ns,
    &Metrics::lock_table_ns,
};

}  // namespace partdb

#endif  // PARTDB_RUNTIME_METRICS_H_

// DbHandle: the transport-independent database handle. Driver code — the
// closed-loop driver, the open-loop Poisson load driver, the figure and
// throughput harnesses — is written against this interface and runs
// unmodified whether the database is embedded in-process (Database) or
// served over TCP (net/RemoteDatabase): same sessions, same measurement
// windows, same Metrics.
#ifndef PARTDB_DB_DB_HANDLE_H_
#define PARTDB_DB_DB_HANDLE_H_

#include <memory>
#include <string_view>

#include "db/db_options.h"
#include "db/session.h"
#include "runtime/metrics.h"

namespace partdb {

class DbHandle {
 public:
  virtual ~DbHandle() = default;

  /// Hands out a session. Thread-safe. Destroy every Session before the
  /// handle.
  virtual std::unique_ptr<Session> CreateSession() = 0;

  /// Id of a registered procedure. CHECK-fails when absent.
  virtual ProcId proc(std::string_view name) const = 0;

  /// Execution context of the serving database. A remote handle always
  /// reports kParallel (the server runs the parallel runtime; wall-clock
  /// measurement windows apply).
  virtual RunMode mode() const = 0;

  /// Begins/ends a measurement window (throughput, latency histograms, CPU
  /// utilization) on the serving database.
  virtual void BeginMeasurement() = 0;
  virtual Metrics EndMeasurement() = 0;

  /// Simulated mode only: advances the virtual clock by `d`. CHECK-fails on
  /// transports that cannot (mode() == kParallel).
  virtual void AdvanceSim(Duration d) = 0;
};

}  // namespace partdb

#endif  // PARTDB_DB_DB_HANDLE_H_

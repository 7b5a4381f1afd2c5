#include "runtime/metrics.h"

#include <cstdio>

namespace partdb {

void Metrics::Merge(const Metrics& o) {
  for (uint64_t Metrics::*f : kMetricsCounters) this->*f += o.*f;
  for (Duration Metrics::*f : kMetricsLockTimes) this->*f += o.*f;
  sp_latency.Merge(o.sp_latency);
  mp_latency.Merge(o.mp_latency);
  if (procs.size() < o.procs.size()) procs.resize(o.procs.size());
  for (size_t i = 0; i < o.procs.size(); ++i) {
    procs[i].committed += o.procs[i].committed;
    procs[i].user_aborts += o.procs[i].user_aborts;
    procs[i].latency.Merge(o.procs[i].latency);
  }
}

std::string Metrics::Summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "throughput=%.0f txn/s committed=%llu (sp=%llu mp=%llu) user_aborts=%llu "
      "spec_execs=%llu cascades=%llu fastpath=%llu locked=%llu waits=%llu "
      "deadlocks=%llu timeouts=%llu retries=%llu util(part=%.2f coord=%.2f) lock_time=%.1f%%",
      Throughput(), static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(sp_committed),
      static_cast<unsigned long long>(mp_committed),
      static_cast<unsigned long long>(user_aborts),
      static_cast<unsigned long long>(speculative_execs),
      static_cast<unsigned long long>(cascading_reexecs),
      static_cast<unsigned long long>(lock_fast_path),
      static_cast<unsigned long long>(locked_txns),
      static_cast<unsigned long long>(lock_waits),
      static_cast<unsigned long long>(local_deadlocks),
      static_cast<unsigned long long>(timeout_aborts),
      static_cast<unsigned long long>(txn_retries), PartitionUtilization(),
      CoordinatorUtilization(), LockTimeFraction() * 100.0);
  return buf;
}

}  // namespace partdb

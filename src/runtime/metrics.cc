#include "runtime/metrics.h"

#include <iomanip>
#include <sstream>

namespace partdb {

void Metrics::Merge(const Metrics& o) {
  for (const MetricsCounter& c : kMetricsCounters) this->*c.field += o.*c.field;
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
  std::ostringstream s;
  s << std::fixed << std::setprecision(0) << "throughput=" << Throughput() << " txn/s";
  for (const MetricsCounter& c : kMetricsCounters) s << ' ' << c.name << '=' << this->*c.field;
  s << std::setprecision(2) << " util(part=" << PartitionUtilization()
    << " coord=" << CoordinatorUtilization() << ')' << std::setprecision(1)
    << " lock_time=" << LockTimeFraction() * 100.0 << '%';
  return s.str();
}

}  // namespace partdb

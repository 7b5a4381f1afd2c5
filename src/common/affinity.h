// CPU affinity helpers for pinning worker and event-loop threads. Pinning
// keeps a partition worker's cache and (on multi-socket boxes) NUMA locality
// stable instead of letting the scheduler migrate it mid-window. Everything
// degrades to a no-op on platforms without sched_setaffinity — callers treat
// a failed pin as advisory and report it through stats, never as an error.
#ifndef PARTDB_COMMON_AFFINITY_H_
#define PARTDB_COMMON_AFFINITY_H_

#include <vector>

namespace partdb {

/// Pinning policy for a group of threads (partition workers, event loops).
struct CpuAffinity {
  /// Pin each thread in the group round-robin over `cpus`, or over all
  /// online CPUs when `cpus` is empty.
  bool pin = false;
  /// Explicit CPU list (implies pin when non-empty).
  std::vector<int> cpus;

  bool enabled() const { return pin || !cpus.empty(); }
};

/// CPUs online on the host (>= 1; 0 only if undetectable). The process's
/// affinity mask does not limit this count.
int OnlineCpuCount();

/// Pins the calling thread to `cpu`. Returns false when unsupported, the cpu
/// is out of range, or the kernel refused.
bool PinCurrentThreadToCpu(int cpu);

/// CPU for the `index`-th thread of a group under `a`, or -1 for "don't
/// pin" (policy disabled).
int AffinityCpuFor(const CpuAffinity& a, int index);

/// Moves the calling thread to SCHED_BATCH: a wakeup of this thread never
/// preempts the thread running on the CPU; it runs when that thread blocks,
/// yields or uses up its slice. Advisory: where unsupported or refused, the
/// thread keeps its policy.
void SetCurrentThreadBatchPolicy();

}  // namespace partdb

#endif  // PARTDB_COMMON_AFFINITY_H_

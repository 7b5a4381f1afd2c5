// Thread placement helpers: the host's CPU count, the loop threads'
// scheduling policy, and a one-CPU pin that the tests use to run a block on
// a single CPU (tests/one_cpu_scope.h). The runtime pins no thread: workers
// and event loops run wherever the scheduler puts them. Everything degrades
// to a no-op on platforms without the calls.
#ifndef PARTDB_COMMON_AFFINITY_H_
#define PARTDB_COMMON_AFFINITY_H_

namespace partdb {

/// CPUs online on the host (>= 1; 0 only if undetectable). The process's
/// affinity mask does not limit this count.
int OnlineCpuCount();

/// Pins the calling thread to `cpu`. Returns false when unsupported, the cpu
/// is out of range, or the kernel refused.
bool PinCurrentThreadToCpu(int cpu);

/// Moves the calling thread to SCHED_BATCH: a wakeup of this thread never
/// preempts the thread running on the CPU; it runs when that thread blocks,
/// yields or uses up its slice. Advisory: where unsupported or refused, the
/// thread keeps its policy.
void SetCurrentThreadBatchPolicy();

}  // namespace partdb

#endif  // PARTDB_COMMON_AFFINITY_H_

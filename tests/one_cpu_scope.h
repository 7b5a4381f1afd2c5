// OneCpuScope: runs a block of a test with every thread it starts on one CPU.
#ifndef PARTDB_TESTS_ONE_CPU_SCOPE_H_
#define PARTDB_TESTS_ONE_CPU_SCOPE_H_

#include <sched.h>

#include "common/affinity.h"

namespace partdb {

// Pins the calling thread to the first CPU of its affinity mask for the
// scope; threads it starts meanwhile inherit the one-CPU mask.
class OneCpuScope {
 public:
  OneCpuScope() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        pinned_ = PinCurrentThreadToCpu(cpu);
        return;
      }
    }
  }
  ~OneCpuScope() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  OneCpuScope(const OneCpuScope&) = delete;
  OneCpuScope& operator=(const OneCpuScope&) = delete;

  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

}  // namespace partdb

#endif  // PARTDB_TESTS_ONE_CPU_SCOPE_H_

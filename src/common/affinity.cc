#include "common/affinity.h"

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace partdb {

int OnlineCpuCount() {
#if defined(__linux__)
  const int n = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (n >= 1) return n;
#endif
  return static_cast<int>(std::thread::hardware_concurrency());
}

bool PinCurrentThreadToCpu(int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

void SetCurrentThreadBatchPolicy() {
#if defined(__linux__)
  sched_param param{};
  pthread_setschedparam(pthread_self(), SCHED_BATCH, &param);
#endif
}

}  // namespace partdb

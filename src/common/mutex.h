// Annotated mutex / condition-variable wrappers — the only place in src/
// where std::mutex and std::condition_variable appear. partdb::Mutex is a
// Clang-TSA capability, MutexLock a scoped acquisition, and CondVar waits on
// a Mutex the caller provably holds (PARTDB_REQUIRES), so every wait site is
// inside the analysis. CondVar carries no predicate overloads on purpose:
// the analysis does not propagate capabilities into lambda bodies, so wait
// loops are written out at the call site, where the guarded reads they make
// are checked.
#ifndef PARTDB_COMMON_MUTEX_H_
#define PARTDB_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace partdb {

class CondVar;

/// A std::mutex the thread-safety analysis can see. Prefer MutexLock over
/// manual Lock/Unlock pairs.
class PARTDB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PARTDB_ACQUIRE() { mu_.lock(); }
  void Unlock() PARTDB_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scoped acquisition of a Mutex (the annotated std::lock_guard).
class PARTDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PARTDB_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() PARTDB_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to partdb::Mutex. Waits atomically release and
/// reacquire the mutex; the caller must hold it (checked by the analysis)
/// and, as with any condition variable, re-check its predicate in a loop
/// around the wait (spurious wakeups).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  /// Blocks until notified (or spuriously woken). `mu` is released for the
  /// duration and held again on return.
  void Wait(Mutex& mu) PARTDB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(Adopt(mu));
    cv_.wait(lk);
    lk.release();  // the caller still owns the mutex, as the analysis assumes
  }

  /// Blocks until notified or `deadline` passes. Returns false on timeout.
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      PARTDB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(Adopt(mu));
    const std::cv_status st = cv_.wait_until(lk, deadline);
    lk.release();
    return st != std::cv_status::timeout;
  }

 private:
  /// Wraps the held mutex for std::condition_variable without re-locking;
  /// the matching release() in the callers keeps ownership with the caller.
  static std::unique_lock<std::mutex> Adopt(Mutex& mu) {
    return std::unique_lock<std::mutex>(mu.mu_, std::adopt_lock);
  }

  std::condition_variable cv_;
};

}  // namespace partdb

#endif  // PARTDB_COMMON_MUTEX_H_

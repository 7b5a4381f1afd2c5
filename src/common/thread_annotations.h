// Clang Thread Safety Analysis attribute macros (the GUARDED_BY family).
// Annotating lock discipline turns the actor-ownership model — "which thread
// may touch which state under which lock" — from comments into contracts the
// compiler checks: a clang build with -DPARTDB_THREAD_SAFETY=ON compiles the
// whole tree -Wthread-safety -Wthread-safety-beta -Werror (CI job
// `thread-safety`). Under other compilers the macros expand to nothing, so
// gcc builds are unaffected.
//
// Conventions (see README "Correctness tooling"):
//  - Every lock in src/ is a partdb::Mutex (common/mutex.h); raw std::mutex
//    and std::condition_variable appear only inside that wrapper.
//  - Fields a lock protects carry PARTDB_GUARDED_BY(mu_); private methods
//    that assume the lock is held carry PARTDB_REQUIRES(mu_).
//  - State owned by a single thread (an actor's worker, an event loop) has
//    no capability to annotate; it keeps an ownership comment instead.
//  - PARTDB_NO_THREAD_SAFETY_ANALYSIS is an escape hatch of last resort;
//    every use carries a one-line justification.
#ifndef PARTDB_COMMON_THREAD_ANNOTATIONS_H_
#define PARTDB_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define PARTDB_THREAD_ANNOTATION_IMPL(x) __attribute__((x))
#else
#define PARTDB_THREAD_ANNOTATION_IMPL(x)  // no-op outside clang
#endif

/// Marks a class as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define PARTDB_CAPABILITY(x) PARTDB_THREAD_ANNOTATION_IMPL(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases a
/// capability.
#define PARTDB_SCOPED_CAPABILITY PARTDB_THREAD_ANNOTATION_IMPL(scoped_lockable)

/// Field is protected by the given capability; reads and writes require
/// holding it.
#define PARTDB_GUARDED_BY(x) PARTDB_THREAD_ANNOTATION_IMPL(guarded_by(x))

/// Pointer field whose *pointee* is protected by the capability.
#define PARTDB_PT_GUARDED_BY(x) PARTDB_THREAD_ANNOTATION_IMPL(pt_guarded_by(x))

/// Function requires the capability to be held on entry (and does not
/// release it).
#define PARTDB_REQUIRES(...) \
  PARTDB_THREAD_ANNOTATION_IMPL(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define PARTDB_ACQUIRE(...) \
  PARTDB_THREAD_ANNOTATION_IMPL(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry).
#define PARTDB_RELEASE(...) \
  PARTDB_THREAD_ANNOTATION_IMPL(release_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (self-deadlock
/// documentation for public entry points that lock internally).
#define PARTDB_EXCLUDES(...) PARTDB_THREAD_ANNOTATION_IMPL(locks_excluded(__VA_ARGS__))

/// Declares lock acquisition order: this capability must be acquired after
/// the listed ones.
#define PARTDB_ACQUIRED_AFTER(...) \
  PARTDB_THREAD_ANNOTATION_IMPL(acquired_after(__VA_ARGS__))

/// Function returns a reference to the given capability (accessor pattern).
#define PARTDB_RETURN_CAPABILITY(x) PARTDB_THREAD_ANNOTATION_IMPL(lock_returned(x))

/// Escape hatch: the function's locking cannot be expressed to the analysis.
/// Every use must carry a one-line justification comment.
#define PARTDB_NO_THREAD_SAFETY_ANALYSIS \
  PARTDB_THREAD_ANNOTATION_IMPL(no_thread_safety_analysis)

#endif  // PARTDB_COMMON_THREAD_ANNOTATIONS_H_

// Bench-side tracing for bench_partdb. Every span is recorded by a wrapper
// in this directory around a call the benchmark makes into partdb
// (Database::Open/Close/Checkpoint, Session::Submit) or a hook partdb calls
// back into (Engine::Execute/LockSet/SerializeState/RestoreState through a
// decorator engine; ProcedureDescriptor::route and decode_args_into through
// wrapped closures). Nothing inside src/ is instrumented.
//
// Recording is per thread and lock-free on the hot path: each thread owns a
// preallocated span buffer plus per-hook call counts, summed time and a
// latency histogram. Per-transaction hooks count only while the measurement
// window is open; discrete events (open, close, checkpoint, checkpoint
// serialization, restore) always count. Spans are kept for 1 in
// kSampleEvery transactions: the generator marks the sampled transaction's
// argument payload, and a hook whose payload is marked records a span
// linked to it by the payload's address (embedded sessions hand the
// engine the very object the generator submitted; over the wire the server
// decodes its own copy, so fragments there stay unlinked).
//
// Threads are classified by the hooks they run (Execute/LockSet ->
// partition worker, route -> session worker, decode -> network event
// loop, Submit -> generator), and their on-CPU and run-queue-wait time over
// the window comes from /proc/self/task/<tid>/schedstat read at the window
// edges.
#ifndef BENCH_PARTDB_TRACE_H_
#define BENCH_PARTDB_TRACE_H_

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "db/procedure_registry.h"
#include "engine/engine.h"

namespace partdb::bench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock every span uses).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Hook : uint8_t {
  kTxn,         // sampled transaction: due time -> completion callback
  kSubmit,      // Session::Submit
  kRoute,       // ProcedureDescriptor::route
  kExecute,     // Engine::Execute (one fragment)
  kLockSet,     // Engine::LockSet
  kDecode,      // ProcedureDescriptor::decode_args_into (server event loop)
  kLoad,        // engine factory: build + populate one partition
  kSerialize,   // Engine::SerializeState (checkpoint)
  kRestore,     // Engine::RestoreState (recovery)
  kOpen,        // Database::Open (+ server start and Connect for kv_net)
  kClose,       // Database::Close
  kCheckpoint,  // Database::Checkpoint
  kCount
};

inline const char* HookName(Hook h) {
  static constexpr const char* kNames[] = {"txn",  "submit",    "route",   "execute",
                                           "lockset", "decode", "load",    "serialize",
                                           "restore", "open",   "close",   "checkpoint"};
  return kNames[static_cast<int>(h)];
}

/// Per-transaction hooks are window-gated; the rest are discrete events.
inline bool WindowGated(Hook h) {
  return h == Hook::kSubmit || h == Hook::kRoute || h == Hook::kExecute ||
         h == Hook::kLockSet || h == Hook::kDecode;
}

enum class Role : uint8_t { kOther, kGenerator, kSession, kPartition, kNetLoop };

inline const char* RoleName(Role r) {
  static constexpr const char* kNames[] = {"other", "generator", "session", "partition",
                                           "net_loop"};
  return kNames[static_cast<int>(r)];
}

/// The thread role a hook implies (ordered: a higher role wins).
inline Role RoleOf(Hook h) {
  switch (h) {
    case Hook::kExecute:
    case Hook::kLockSet:
      return Role::kPartition;
    case Hook::kRoute:
      return Role::kSession;
    case Hook::kDecode:
      return Role::kNetLoop;
    case Hook::kSubmit:
      return Role::kGenerator;
    default:
      return Role::kOther;
  }
}

struct HookAgg {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  Histogram hist;  // ns per call

  void Merge(const HookAgg& o) {
    calls += o.calls;
    total_ns += o.total_ns;
    hist.Merge(o.hist);
  }
  double mean_ns() const {
    return calls == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(calls);
  }
};

struct Span {
  int64_t start = 0;
  int64_t end = 0;
  uintptr_t link = 0;  // sampled transaction's args address; 0 = unlinked
  uint16_t hook = 0;
  uint16_t thread = 0;  // index into the tracer's thread table
};

/// At most one Tracer per process: the per-thread state is cached in a
/// thread_local that does not know which tracer created it.
class Tracer {
 public:
  static constexpr int kSampleEvery = 64;
  static constexpr size_t kSpansPerThread = size_t{1} << 18;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_window(bool open) { window_.store(open, std::memory_order_relaxed); }

  /// Records one timed call made on the calling thread. `args` is the
  /// transaction payload the call worked on (null when there is none).
  void Record(Hook h, int64_t start, int64_t end, const void* args) {
    // Classify the thread even outside the window, so it is known (and its
    // schedstat read) when the window opens.
    ThreadState* ts = Local();
    const Role role = RoleOf(h);
    if (role > ts->role.load(std::memory_order_relaxed)) {
      ts->role.store(role, std::memory_order_relaxed);
    }
    if (WindowGated(h) && !window_.load(std::memory_order_relaxed)) return;
    HookAgg& agg = ts->aggs[static_cast<int>(h)];
    agg.calls++;
    agg.total_ns += end - start;
    agg.hist.Add(end - start);
    const bool linked = args != nullptr && Sampled(args);
    if (!linked && WindowGated(h)) return;  // only sampled transactions keep spans
    if (ts->spans.size() == ts->spans.capacity()) {
      ts->dropped++;
      return;
    }
    ts->spans.push_back(Span{start, end, linked ? reinterpret_cast<uintptr_t>(args) : 0,
                             static_cast<uint16_t>(h), ts->index});
  }

  /// Marks / unmarks a sampled transaction's argument payload. A slot
  /// collision drops the older sample's links, never a wrong link: lookups
  /// compare the full address.
  void Sample(const void* args) { Slot(args).store(reinterpret_cast<uintptr_t>(args)); }
  void Unsample(const void* args) {
    uintptr_t expect = reinterpret_cast<uintptr_t>(args);
    Slot(args).compare_exchange_strong(expect, 0);
  }
  bool Sampled(const void* args) const {
    return Slot(args).load(std::memory_order_relaxed) == reinterpret_cast<uintptr_t>(args);
  }

  /// Reads schedstat for every classified thread (main thread, at the
  /// window's begin and end edges).
  void SnapshotSched(bool begin) {
    MutexLock lock(mu_);
    for (auto& ts : threads_) {
      if (ts->role.load(std::memory_order_relaxed) == Role::kOther) continue;
      SchedTimes t;
      if (!ReadSchedstat(ts->tid, &t)) continue;
      if (begin) {
        ts->sched_begin = t;
        ts->role_at_begin = ts->role.load(std::memory_order_relaxed);
      } else {
        ts->sched_end = t;
      }
    }
  }

  struct RoleCpu {
    int threads = 0;
    double cpu_s = 0;   // on-CPU time over the window, summed over threads
    double runq_s = 0;  // runnable-but-waiting time, summed over threads
  };
  /// CPU of the threads that held `r` when the window opened.
  RoleCpu Cpu(Role r) const {
    MutexLock lock(mu_);
    RoleCpu out;
    for (const auto& ts : threads_) {
      if (ts->role_at_begin != r || !ts->sched_begin.valid || !ts->sched_end.valid) continue;
      out.threads++;
      out.cpu_s += static_cast<double>(ts->sched_end.cpu_ns - ts->sched_begin.cpu_ns) * 1e-9;
      out.runq_s += static_cast<double>(ts->sched_end.wait_ns - ts->sched_begin.wait_ns) * 1e-9;
    }
    return out;
  }

  /// Hook totals over every thread. Call only once the threads that record
  /// have been joined (the database is closed).
  HookAgg Merged(Hook h) const {
    MutexLock lock(mu_);
    HookAgg out;
    for (const auto& ts : threads_) out.Merge(ts->aggs[static_cast<int>(h)]);
    return out;
  }

  /// Where the sampled transactions' time went: each transaction span minus
  /// the union of its linked child spans is its self time (mailbox hops,
  /// queueing, coordination, log waits, the wire).
  struct SelfTimes {
    uint64_t txns = 0;
    double total_ns = 0;
    double self_ns = 0;
    double submit_ns = 0;   // covered by Session::Submit
    double execute_ns = 0;  // covered by Engine::Execute
  };
  SelfTimes ComputeSelfTimes() const {
    MutexLock lock(mu_);
    std::unordered_map<uintptr_t, std::vector<const Span*>> children;
    std::vector<const Span*> txns;
    for (const auto& ts : threads_) {
      for (const Span& s : ts->spans) {
        if (s.link == 0) continue;
        if (s.hook == static_cast<uint16_t>(Hook::kTxn)) {
          txns.push_back(&s);
        } else {
          children[s.link].push_back(&s);
        }
      }
    }
    SelfTimes out;
    std::vector<std::pair<int64_t, int64_t>> all, sub, exe;
    for (const Span* t : txns) {
      all.clear();
      sub.clear();
      exe.clear();
      auto it = children.find(t->link);
      if (it != children.end()) {
        for (const Span* c : it->second) {
          // Payload addresses are reused once a transaction completes; the
          // interval check keeps a later transaction's spans out.
          const int64_t s = std::max(c->start, t->start);
          const int64_t e = std::min(c->end, t->end);
          if (c->start > t->end || c->end < t->start || e <= s) continue;
          all.emplace_back(s, e);
          if (c->hook == static_cast<uint16_t>(Hook::kSubmit)) sub.emplace_back(s, e);
          if (c->hook == static_cast<uint16_t>(Hook::kExecute)) exe.emplace_back(s, e);
        }
      }
      const double total = static_cast<double>(t->end - t->start);
      out.txns++;
      out.total_ns += total;
      out.self_ns += total - UnionLength(&all);
      out.submit_ns += UnionLength(&sub);
      out.execute_ns += UnionLength(&exe);
    }
    return out;
  }

  uint64_t dropped() const {
    MutexLock lock(mu_);
    uint64_t n = 0;
    for (const auto& ts : threads_) n += ts->dropped;
    return n;
  }

  /// Writes every span (README "Trace format"). Returns false when the
  /// file cannot be written.
  bool WriteJson(const std::string& path) const {
    MutexLock lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"clock\": \"CLOCK_MONOTONIC ns\", \"sample_every\": %d,\n \"hooks\": [",
                 kSampleEvery);
    for (int h = 0; h < static_cast<int>(Hook::kCount); ++h) {
      std::fprintf(f, "%s\"%s\"", h == 0 ? "" : ", ", HookName(static_cast<Hook>(h)));
    }
    std::fprintf(f, "],\n \"threads\": [");
    uint64_t dropped = 0;
    for (size_t i = 0; i < threads_.size(); ++i) {
      std::fprintf(f, "%s{\"tid\": %d, \"role\": \"%s\"}", i == 0 ? "" : ", ",
                   static_cast<int>(threads_[i]->tid),
                   RoleName(threads_[i]->role.load(std::memory_order_relaxed)));
      dropped += threads_[i]->dropped;
    }
    std::fprintf(f, "],\n \"dropped\": %llu,\n \"spans\": [",
                 static_cast<unsigned long long>(dropped));
    bool first = true;
    for (const auto& ts : threads_) {
      for (const Span& s : ts->spans) {
        std::fprintf(f, "%s\n  [%u, %u, %lld, %lld, %llu]", first ? "" : ",", s.hook, s.thread,
                     static_cast<long long>(s.start), static_cast<long long>(s.end),
                     static_cast<unsigned long long>(s.link));
        first = false;
      }
    }
    std::fprintf(f, "\n ]\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct SchedTimes {
    bool valid = false;
    int64_t cpu_ns = 0;
    int64_t wait_ns = 0;
  };

  struct ThreadState {
    pid_t tid = 0;
    uint16_t index = 0;
    std::atomic<Role> role{Role::kOther};
    HookAgg aggs[static_cast<int>(Hook::kCount)];
    std::vector<Span> spans;
    uint64_t dropped = 0;
    // Main thread only (window edges).
    Role role_at_begin = Role::kOther;
    SchedTimes sched_begin, sched_end;
  };

  static constexpr size_t kSlots = 4096;

  std::atomic<uintptr_t>& Slot(const void* p) const {
    const auto a = reinterpret_cast<uintptr_t>(p);
    return slots_[(a >> 4 ^ a >> 16) & (kSlots - 1)];
  }

  ThreadState* Local() {
    thread_local ThreadState* cached = nullptr;
    if (cached != nullptr) return cached;
    auto ts = std::make_unique<ThreadState>();
    ts->tid = static_cast<pid_t>(::syscall(SYS_gettid));
    ts->spans.reserve(kSpansPerThread);
    MutexLock lock(mu_);
    ts->index = static_cast<uint16_t>(threads_.size());
    cached = ts.get();
    threads_.push_back(std::move(ts));
    return cached;
  }

  static bool ReadSchedstat(pid_t tid, SchedTimes* out) {
    const std::string path = "/proc/self/task/" + std::to_string(tid) + "/schedstat";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) return false;
    long long cpu = 0, wait = 0;
    const bool ok = std::fscanf(f, "%lld %lld", &cpu, &wait) == 2;
    std::fclose(f);
    if (!ok) return false;
    *out = SchedTimes{true, cpu, wait};
    return true;
  }

  static double UnionLength(std::vector<std::pair<int64_t, int64_t>>* iv) {
    std::sort(iv->begin(), iv->end());
    double len = 0;
    int64_t cur_s = 0, cur_e = 0;
    bool open = false;
    for (const auto& [s, e] : *iv) {
      if (open && s <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open) len += static_cast<double>(cur_e - cur_s);
      cur_s = s;
      cur_e = e;
      open = true;
    }
    if (open) len += static_cast<double>(cur_e - cur_s);
    return len;
  }

  std::atomic<bool> window_{false};
  mutable std::atomic<uintptr_t> slots_[kSlots];
  mutable Mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_ PARTDB_GUARDED_BY(mu_);
};

/// Decorator engine: forwards every call to the wrapped engine and times
/// the ones the per-layer metrics need.
class TracedEngine : public Engine {
 public:
  TracedEngine(std::unique_ptr<Engine> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  Engine& inner() { return *inner_; }

  ExecResult Execute(const Payload& args, int round, const Payload* round_input,
                     UndoBuffer* undo, WorkMeter* meter) override {
    const int64_t s = NowNs();
    ExecResult r = inner_->Execute(args, round, round_input, undo, meter);
    tracer_->Record(Hook::kExecute, s, NowNs(), &args);
    return r;
  }
  void LockSet(const Payload& args, int round, std::vector<LockRequest>* out) const override {
    const int64_t s = NowNs();
    inner_->LockSet(args, round, out);
    tracer_->Record(Hook::kLockSet, s, NowNs(), &args);
  }
  uint64_t StateHash() const override { return inner_->StateHash(); }
  bool SupportsCheckpoint() const override { return inner_->SupportsCheckpoint(); }
  void SerializeState(WireWriter& w) const override {
    const int64_t s = NowNs();
    inner_->SerializeState(w);
    tracer_->Record(Hook::kSerialize, s, NowNs(), nullptr);
  }
  bool RestoreState(WireReader& r) override {
    const int64_t s = NowNs();
    const bool ok = inner_->RestoreState(r);
    tracer_->Record(Hook::kRestore, s, NowNs(), nullptr);
    return ok;
  }

 private:
  std::unique_ptr<Engine> inner_;
  Tracer* tracer_;
};

/// The engine a (possibly decorated) partition engine wraps.
inline Engine& Unwrap(Engine& e) {
  auto* traced = dynamic_cast<TracedEngine*>(&e);
  return traced != nullptr ? traced->inner() : e;
}

/// Wraps the factory so each engine it builds is timed (population) and
/// decorated.
inline EngineFactory TraceEngines(EngineFactory inner, Tracer* tracer) {
  return [inner = std::move(inner), tracer](PartitionId p) -> std::unique_ptr<Engine> {
    const int64_t s = NowNs();
    std::unique_ptr<Engine> e = inner(p);
    tracer->Record(Hook::kLoad, s, NowNs(), nullptr);
    return std::make_unique<TracedEngine>(std::move(e), tracer);
  };
}

/// Wraps the route and pooled-decode hooks of every descriptor. The
/// workloads register no multi-round procedure, so round_input never runs
/// and is left alone.
inline void TraceProcedures(std::vector<ProcedureDescriptor>* procs, Tracer* tracer) {
  for (ProcedureDescriptor& d : *procs) {
    d.route = [route = std::move(d.route), tracer](const Payload& args) {
      const int64_t s = NowNs();
      TxnRouting r = route(args);
      tracer->Record(Hook::kRoute, s, NowNs(), &args);
      return r;
    };
    if (d.decode_args_into != nullptr) {
      d.decode_args_into = [decode = std::move(d.decode_args_into), tracer](WireReader& r,
                                                                           Payload* into) {
        const int64_t s = NowNs();
        const bool ok = decode(r, into);
        tracer->Record(Hook::kDecode, s, NowNs(), nullptr);
        return ok;
      };
    }
  }
}

}  // namespace partdb::bench

#endif  // BENCH_PARTDB_TRACE_H_

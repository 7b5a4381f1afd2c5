// The load generators of bench_partdb, written against the public
// DbHandle/Session API so they drive an embedded Database and a served one
// alike.
//
// RunDueTimeOpenLoop: N generator threads, each with its own Session, submit
// Poisson arrivals at a fixed aggregate rate. Every request is timed from the
// moment it was due, not from when the generator got around to submitting it,
// so a stalled generator (or a Submit that blocks) shows up as latency of the
// requests queued behind the stall; how late the generator ran is reported on
// its own (lateness) so the schedule's accuracy can be checked. Arrivals the
// session refuses (admission control) are counted, never retried.
//
// RunCallbackLoop (closed loop): N logical clients, each on its own Session
// with one transaction in flight; the completion callback submits the
// next one (the paper's §5 client model: no think time, no generator threads).
//
// They overlap RunOpenLoop (db/load_driver.h), which times from the actual
// submit, and RunClosedLoop (db/closed_loop.h), which reports only the
// window's Metrics: neither has the due-time clock, per-completion counts,
// window slices or window-edge hooks this benchmark needs (README "Known
// gaps").
//
// Both report the same LoadReport. The window is [warmup, warmup + measure)
// after the start; a transaction belongs to it when it was due (open loop)
// or submitted (closed loop) inside the window, and it is timed to its
// completion even when that falls after the window closes.
#ifndef BENCH_PARTDB_OPEN_LOOP_H_
#define BENCH_PARTDB_OPEN_LOOP_H_

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "db/closed_loop.h"
#include "db/db_handle.h"
#include "trace.h"

namespace partdb::bench {

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct LoadReport {
  /// The window is cut into this many equal slices; the end-to-end metrics
  /// are medians over the slices, so a burst of scheduling noise in one
  /// slice does not move them.
  static constexpr int kSlices = 10;

  double window_s = 0;
  uint64_t attempted = 0;  // due (open) or submitted (closed) inside the window
  uint64_t rejected = 0;   // of those: refused by admission control
  uint64_t completed = 0;  // of those: completed, once everything drained
  uint64_t committed = 0;
  uint64_t user_aborts = 0;
  uint64_t retried = 0;  // of those: needed more than one attempt
  /// Sum of the CountHook over every completion, inside the window or not.
  uint64_t counted = 0;
  /// Completion callbacks that ran inside the window, whenever submitted.
  uint64_t window_completions = 0;
  Histogram latency;   // ns: due (open) or submit (closed) -> completion callback
  Histogram lateness;  // ns: due -> Submit call (open loop only)
  Histogram cb_delay;  // ns: latency the generator saw minus TxnResult::latency_ns
  std::vector<Histogram> slice_latency = std::vector<Histogram>(kSlices);  // by due/submit time
  std::vector<uint64_t> slice_completions = std::vector<uint64_t>(kSlices);

  uint64_t failed() const { return attempted - completed; }
  double offered_per_s() const {
    return window_s > 0 ? static_cast<double>(attempted) / window_s : 0.0;
  }
  /// Median over the slices of each slice's completion rate.
  double SliceMedianRate() const {
    std::vector<double> v;
    for (uint64_t n : slice_completions) v.push_back(static_cast<double>(n) * kSlices / window_s);
    return Median(std::move(v));
  }
  /// Median over the slices of each slice's latency percentile `p` (ns).
  double SliceMedianPercentile(double p) const {
    std::vector<double> v;
    for (const Histogram& h : slice_latency) v.push_back(h.Percentile(p));
    return Median(std::move(v));
  }
};

/// Main-thread hooks at the window edges; `during` runs right after the
/// window opens and must return before it closes (the loop then sleeps out
/// the rest).
struct WindowHooks {
  std::function<void()> begin;
  std::function<void(int64_t window_end_ns)> during;
  std::function<void()> end;
};

/// Counts something about each completed transaction, inside the window
/// or not (the KV workloads: keys a committed update incremented). Summed
/// per session, so completions on different threads share no cache line.
using CountHook = std::function<uint64_t(const Payload& args, const TxnResult& r)>;

/// Generates the next invocation for generator thread / client `index`.
using NextInvocation = std::function<Invocation(int index, Rng& rng)>;

namespace internal {

/// Index of the window slice holding `t`, or -1 outside the window.
inline int SliceOf(int64_t t, int64_t window_begin, int64_t window_end) {
  if (t < window_begin || t >= window_end) return -1;
  return static_cast<int>((t - window_begin) * LoadReport::kSlices /
                          (window_end - window_begin));
}

inline void SleepUntilNs(int64_t t) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t / kSecond);
  ts.tv_nsec = static_cast<long>(t % kSecond);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

/// Completion-side counters of one session. Callbacks of one session run on
/// one thread at a time, but not the thread that reads the totals; the
/// (uncontended) lock orders the two.
struct Tally {
  Mutex mu;
  uint64_t completed PARTDB_GUARDED_BY(mu) = 0;
  uint64_t committed PARTDB_GUARDED_BY(mu) = 0;
  uint64_t user_aborts PARTDB_GUARDED_BY(mu) = 0;
  uint64_t retried PARTDB_GUARDED_BY(mu) = 0;
  uint64_t window_completions PARTDB_GUARDED_BY(mu) = 0;
  uint64_t counted PARTDB_GUARDED_BY(mu) = 0;
  Histogram latency PARTDB_GUARDED_BY(mu);
  Histogram cb_delay PARTDB_GUARDED_BY(mu);
  std::vector<Histogram> slice_latency PARTDB_GUARDED_BY(mu) =
      std::vector<Histogram>(LoadReport::kSlices);
  std::vector<uint64_t> slice_completions PARTDB_GUARDED_BY(mu) =
      std::vector<uint64_t>(LoadReport::kSlices);

  /// One completion: `start_slice` is the window slice its due/submit time
  /// fell in, `done_slice` the one it completed in (-1: outside).
  void Add(int64_t start_ns, int64_t submit_ns, int64_t now, int start_slice, int done_slice,
           const TxnResult& r, uint64_t count) {
    MutexLock lock(mu);
    counted += count;
    if (done_slice >= 0) {
      window_completions++;
      slice_completions[static_cast<size_t>(done_slice)]++;
    }
    if (start_slice < 0) return;
    slice_latency[static_cast<size_t>(start_slice)].Add(now - start_ns);
    completed++;
    if (r.committed) {
      committed++;
    } else {
      user_aborts++;
    }
    if (r.attempts > 1) retried++;
    latency.Add(now - start_ns);
    cb_delay.Add(std::max<int64_t>(0, now - submit_ns - r.latency_ns));
  }

  void MergeInto(LoadReport* out) {
    MutexLock lock(mu);
    out->completed += completed;
    out->committed += committed;
    out->user_aborts += user_aborts;
    out->retried += retried;
    out->window_completions += window_completions;
    out->counted += counted;
    out->latency.Merge(latency);
    out->cb_delay.Merge(cb_delay);
    for (int i = 0; i < LoadReport::kSlices; ++i) {
      out->slice_latency[static_cast<size_t>(i)].Merge(slice_latency[static_cast<size_t>(i)]);
      out->slice_completions[static_cast<size_t>(i)] += slice_completions[static_cast<size_t>(i)];
    }
  }
};

/// Sleeps to the window edges on the calling thread, running the hooks.
inline void RunWindow(int64_t begin_ns, int64_t end_ns, const WindowHooks& hooks) {
  SleepUntilNs(begin_ns);
  if (hooks.begin) hooks.begin();
  if (hooks.during) hooks.during(end_ns);
  SleepUntilNs(end_ns);
  if (hooks.end) hooks.end();
}

}  // namespace internal

struct OpenLoopOptions {
  int threads = 2;      // generator threads, one session each
  double rate = 1000;   // aggregate arrivals per second (Poisson)
  Duration warmup = 0;  // arrivals before the window are run but not reported
  Duration measure = kSecond;
  uint64_t seed = 1;
  NextInvocation next;  // index = generator thread
  CountHook count;      // optional
  WindowHooks window;
  Tracer* tracer = nullptr;  // optional: Submit timing and sampled spans
};

inline LoadReport RunDueTimeOpenLoop(DbHandle& db, const OpenLoopOptions& o) {
  PARTDB_CHECK(db.mode() == RunMode::kParallel);
  PARTDB_CHECK(o.threads >= 1 && o.rate > 0 && o.next != nullptr);
  const int64_t start = NowNs();
  const int64_t window_begin = start + o.warmup;
  const int64_t window_end = window_begin + o.measure;
  const double mean_gap_ns = 1e9 * o.threads / o.rate;
  Tracer* tracer = o.tracer;

  struct Generator {
    internal::Tally tally;
    // Generator thread only; read after join.
    uint64_t attempted = 0;
    uint64_t rejected = 0;
    Histogram lateness;
  };
  std::vector<std::unique_ptr<Generator>> generators;
  for (int t = 0; t < o.threads; ++t) generators.push_back(std::make_unique<Generator>());

  std::vector<std::thread> threads;
  for (int t = 0; t < o.threads; ++t) {
    threads.emplace_back([&, t] {
      // Default timer slack (50 us) would make every wake-up late by that much.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      Generator* g = generators[static_cast<size_t>(t)].get();
      std::unique_ptr<Session> session = db.CreateSession();
      Rng rng(Mix64(o.seed ^ (0x0be4u + static_cast<uint64_t>(t) * 0x7919ull)));
      double next_ns = static_cast<double>(start);
      uint64_t n = 0;
      while (true) {
        next_ns += -std::log(1.0 - rng.NextDouble()) * mean_gap_ns;
        const auto due = static_cast<int64_t>(next_ns);
        if (due >= window_end) break;
        // Generate before waiting, so generation cost is not lateness.
        Invocation inv = o.next(t, rng);
        internal::SleepUntilNs(due);
        const bool in_window = due >= window_begin;
        const bool sampled = tracer != nullptr && in_window && ++n % Tracer::kSampleEvery == 0;
        const Payload* key = inv.args.get();
        if (sampled) tracer->Sample(key);
        const int64_t submit = NowNs();
        const SubmitResult sr = session->Submit(
            inv.proc, inv.args,
            [g, due, submit, sampled, window_begin, window_end, tracer,
             count = &o.count, args = inv.args](const TxnResult& r) {
              const int64_t now = NowNs();
              if (sampled) {
                tracer->Record(Hook::kTxn, due, now, args.get());
                tracer->Unsample(args.get());
              }
              g->tally.Add(due, submit, now, internal::SliceOf(due, window_begin, window_end),
                           internal::SliceOf(now, window_begin, window_end), r,
                           *count ? (*count)(*args, r) : 0);
            });
        if (tracer != nullptr) tracer->Record(Hook::kSubmit, submit, NowNs(), key);
        if (!in_window) continue;
        g->attempted++;
        g->lateness.Add(submit - due);
        if (!sr.accepted) {
          g->rejected++;
          if (sampled) tracer->Unsample(key);
        }
      }
      session->Drain();
    });
  }
  internal::RunWindow(window_begin, window_end, o.window);
  for (std::thread& t : threads) t.join();

  LoadReport out;
  out.window_s = ToSeconds(o.measure);
  for (auto& g : generators) {
    out.attempted += g->attempted;
    out.rejected += g->rejected;
    out.lateness.Merge(g->lateness);
    g->tally.MergeInto(&out);
  }
  return out;
}

struct CallbackLoopOptions {
  int clients = 8;
  Duration warmup = 0;
  Duration measure = kSecond;
  uint64_t seed = 1;
  NextInvocation next;  // index = client
  CountHook count;      // optional
  WindowHooks window;
  Tracer* tracer = nullptr;
};

inline LoadReport RunCallbackLoop(DbHandle& db, const CallbackLoopOptions& o) {
  PARTDB_CHECK(db.mode() == RunMode::kParallel);
  PARTDB_CHECK(o.clients >= 1 && o.next != nullptr);
  const int64_t start = NowNs();
  const int64_t window_begin = start + o.warmup;
  const int64_t window_end = window_begin + o.measure;

  // A client has one transaction in flight, whose state lives here: the
  // callback captures only `this` and fits std::function's inline buffer,
  // so the generator allocates nothing per transaction. All fields are touched
  // by the client's session callbacks (and by the main thread before the
  // first submission); the totals are read after Drain, which orders them.
  struct Client {
    const CallbackLoopOptions* o = nullptr;
    int index = 0;
    int64_t window_begin = 0;
    int64_t window_end = 0;
    std::atomic<bool>* stop = nullptr;
    Rng rng;
    uint64_t n = 0;
    uint64_t attempted = 0;
    internal::Tally tally;
    // The transaction in flight.
    PayloadPtr args;
    int64_t submit = 0;
    bool sampled = false;
    // Last: its destructor drains, so no callback outlives the fields above.
    std::unique_ptr<Session> session;

    void SubmitNext() {
      Invocation inv = o->next(index, rng);
      args = std::move(inv.args);
      submit = NowNs();
      const bool in_window = submit >= window_begin && submit < window_end;
      Tracer* tracer = o->tracer;
      sampled = tracer != nullptr && in_window && ++n % Tracer::kSampleEvery == 0;
      const Payload* key = args.get();
      if (sampled) tracer->Sample(key);
      if (in_window) attempted++;
      const int64_t submit_start = submit;
      session->Submit(inv.proc, args, [this](const TxnResult& r) { Done(r); });
      if (tracer != nullptr) tracer->Record(Hook::kSubmit, submit_start, NowNs(), key);
    }

    void Done(const TxnResult& r) {
      const int64_t now = NowNs();
      if (sampled) {
        o->tracer->Record(Hook::kTxn, submit, now, args.get());
        o->tracer->Unsample(args.get());
      }
      tally.Add(submit, submit, now, internal::SliceOf(submit, window_begin, window_end),
                internal::SliceOf(now, window_begin, window_end), r,
                o->count ? o->count(*args, r) : 0);
      if (!stop->load(std::memory_order_relaxed)) SubmitNext();
    }
  };

  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < o.clients; ++c) {
    auto cl = std::make_unique<Client>();
    cl->o = &o;
    cl->index = c;
    cl->window_begin = window_begin;
    cl->window_end = window_end;
    cl->stop = &stop;
    cl->rng.Seed(ClientStreamSeed(o.seed, c));
    cl->session = db.CreateSession();
    clients.push_back(std::move(cl));
  }
  for (auto& cl : clients) cl->SubmitNext();
  internal::RunWindow(window_begin, window_end, o.window);
  stop.store(true, std::memory_order_relaxed);
  for (auto& cl : clients) cl->session->Drain();

  LoadReport out;
  out.window_s = ToSeconds(o.measure);
  for (auto& cl : clients) {
    out.attempted += cl->attempted;
    cl->tally.MergeInto(&out);
  }
  return out;
}

}  // namespace partdb::bench

#endif  // BENCH_PARTDB_OPEN_LOOP_H_

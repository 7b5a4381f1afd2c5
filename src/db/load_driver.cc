#include "db/load_driver.h"

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"

namespace partdb {

namespace {

using std::chrono::steady_clock;

/// Per-driver-thread aggregates. The completion callbacks run on session
/// worker threads, so the counters are mutex-protected (uncontended: one
/// driver thread + one worker).
struct ThreadStats {
  Mutex mu;
  uint64_t completed PARTDB_GUARDED_BY(mu) = 0;
  uint64_t committed PARTDB_GUARDED_BY(mu) = 0;
  uint64_t user_aborts PARTDB_GUARDED_BY(mu) = 0;
  Histogram latency PARTDB_GUARDED_BY(mu);
};

}  // namespace

LoadDriverReport RunOpenLoop(DbHandle& db, const LoadDriverOptions& options) {
  PARTDB_CHECK(db.mode() == RunMode::kParallel);
  PARTDB_CHECK(options.threads >= 1);
  PARTDB_CHECK(options.target_tps > 0);
  PARTDB_CHECK(options.proc != kInvalidProc);
  PARTDB_CHECK(options.next_args != nullptr);

  const double per_thread_tps = options.target_tps / options.threads;
  std::vector<std::unique_ptr<ThreadStats>> stats;
  std::vector<uint64_t> submitted(options.threads, 0);
  std::vector<uint64_t> rejected(options.threads, 0);
  for (int t = 0; t < options.threads; ++t) stats.push_back(std::make_unique<ThreadStats>());

  const steady_clock::time_point start = steady_clock::now();
  std::vector<std::thread> drivers;
  for (int t = 0; t < options.threads; ++t) {
    drivers.emplace_back([&, t]() {
      std::unique_ptr<Session> session = db.CreateSession();
      Rng rng(Mix64(options.seed ^ (0x10adu + static_cast<uint64_t>(t) * 0x7919ull)));
      ThreadStats* st = stats[t].get();
      double next_ns = 0;  // next arrival, ns since start
      while (true) {
        // Exponential inter-arrival: Poisson process at per_thread_tps.
        const double u = 1.0 - rng.NextDouble();  // (0, 1]
        next_ns += -std::log(u) / per_thread_tps * 1e9;
        if (next_ns >= static_cast<double>(options.duration)) break;
        const steady_clock::time_point due =
            start + std::chrono::nanoseconds(static_cast<int64_t>(next_ns));
        std::this_thread::sleep_until(due);
        PayloadPtr args = options.next_args(t, rng);
        const SubmitResult sr =
            session->Submit(options.proc, std::move(args), [st, due](const TxnResult& r) {
              const std::chrono::nanoseconds latency = steady_clock::now() - due;
              MutexLock lock(st->mu);
              st->completed++;
              if (r.committed) {
                st->committed++;
              } else {
                st->user_aborts++;
              }
              st->latency.Add(latency.count());
            });
        if (!sr.accepted) {
          // Admission control refused the arrival: open-loop overload. The
          // arrival is lost (shed), not retried — exactly the backpressure
          // the bound exists to provide.
          rejected[t]++;
          continue;
        }
        submitted[t]++;
      }
      session->Drain();  // session returns to the pool on destruction
    });
  }
  for (auto& d : drivers) d.join();
  const Duration elapsed =
      std::chrono::duration_cast<std::chrono::nanoseconds>(steady_clock::now() - start)
          .count();

  LoadDriverReport report;
  report.elapsed_ns = elapsed;
  for (int t = 0; t < options.threads; ++t) {
    ThreadStats* st = stats[t].get();
    MutexLock lock(st->mu);
    report.submitted += submitted[t];
    report.rejected += rejected[t];
    report.completed += st->completed;
    report.committed += st->committed;
    report.user_aborts += st->user_aborts;
    report.latency.Merge(st->latency);
  }
  PARTDB_CHECK(report.completed == report.submitted);  // Drain waited them out
  report.offered_tps =
      static_cast<double>(report.submitted) / ToSeconds(options.duration);
  report.completed_tps =
      elapsed > 0 ? static_cast<double>(report.completed) / ToSeconds(elapsed) : 0.0;
  return report;
}

}  // namespace partdb

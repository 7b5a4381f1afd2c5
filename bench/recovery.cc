// Durability tier benchmark (README "Durability"): (1) the logging overhead
// of the three DbOptions::durability modes on the closed-loop KV
// microbenchmark, and (2) parallel recovery — build a command log, then time
// Database::Open replaying it with 1 worker vs one worker per partition.
// Emits BENCH_recovery.json for the cross-PR perf gate; the recovery rows
// encode replayed-records-per-second as the throughput metric. The 1.5x
// parallel-recovery self-check only runs when the process's affinity mask
// has enough CPUs to run the replay workers concurrently (host_cpus, the
// host's online count, is recorded in the JSON so gate comparisons stay
// within a box class). Each worker count is timed three times, interleaved,
// and the check compares the medians, so one run slowed by a busy host cannot
// fail it.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/affinity.h"
#include "common/flags.h"
#include "db/closed_loop.h"
#include "kv/kv_procedures.h"

using namespace partdb;

namespace {

const char* ModeFlagName(DurabilityMode m) { return DurabilityModeName(m); }

constexpr int kRecoveryRuns = 3;

/// CPUs this process may run on. Unlike OnlineCpuCount(), this follows the
/// affinity mask: under `taskset -c 0` it reads 1 however many CPUs the host
/// has online.
int AffinityCpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return OnlineCpuCount();
}

/// Opens the database on `dir` purely to run recovery.
RecoveryReport TimeRecovery(const KvWorkloadOptions& mb, const std::string& dir, int workers,
                            uint64_t seed) {
  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, seed);
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  opts.recovery_workers = workers;
  auto db = Database::Open(std::move(opts));
  RecoveryReport report = db->recovery_report();
  db->Close();
  return report;
}

/// The run with the median recovery time.
RecoveryReport Median(std::vector<RecoveryReport> runs) {
  std::sort(runs.begin(), runs.end(), [](const RecoveryReport& a, const RecoveryReport& b) {
    return a.seconds < b.seconds;
  });
  return runs[runs.size() / 2];
}

/// A recovery as a throughput row (committed = records replayed, window =
/// recovery time).
Metrics RecoveryRow(const RecoveryReport& report) {
  Metrics m;
  m.committed = report.replayed;
  m.sp_committed = report.replayed;
  m.window_ns = static_cast<Duration>(report.seconds * 1e9);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  BenchFlags bench(&flags, /*warmup_default=*/200, /*measure_default=*/1000);
  int64_t* partitions = flags.AddInt64("partitions", 4, "partition worker threads");
  int64_t* clients = flags.AddInt64("clients", 16, "closed-loop logical clients");
  int64_t* mp_pct = flags.AddInt64("mp_pct", 10, "multi-partition transaction percentage");
  int64_t* window_us = flags.AddInt64("window_us", 200, "group-commit window (us)");
  int64_t* recover_txns =
      flags.AddInt64("recover_txns", 20000, "transactions logged for the recovery phase");
  std::string* json = flags.AddString("json", "BENCH_recovery.json", "results file");
  if (!flags.Parse(argc, argv)) return 0;

  KvWorkloadOptions mb;
  mb.num_partitions = static_cast<int>(*partitions);
  mb.num_clients = static_cast<int>(*clients);
  mb.mp_fraction = static_cast<double>(*mp_pct) / 100.0;
  const uint64_t seed = static_cast<uint64_t>(*bench.seed);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("partdb_bench_recovery_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  std::printf("durability bench: %d partitions, %d clients, %d%% multi-partition, "
              "group-commit window %lld us\n",
              mb.num_partitions, mb.num_clients, static_cast<int>(*mp_pct),
              static_cast<long long>(*window_us));

  bool ok = true;
  std::vector<SchemeResult> results;

  // Phase 1 — logging overhead: identical closed-loop runs, one per mode.
  // The "off" row is the baseline the group-commit overhead is quoted
  // against in README "Durability". Group commit then runs again at 64 and
  // 256 clients (rows group_commit_c64, group_commit_c256): each client waits
  // out an fsync per transaction, so at --clients the mode is bound by
  // clients over fsync latency, and only more clients show its capacity.
  struct Phase1Row {
    DurabilityMode mode;
    int clients;
    std::string label;
  };
  std::vector<Phase1Row> rows;
  for (const DurabilityMode mode :
       {DurabilityMode::kOff, DurabilityMode::kAsync, DurabilityMode::kGroupCommit}) {
    rows.push_back({mode, mb.num_clients, ModeFlagName(mode)});
  }
  for (const int clients : {64, 256}) {
    const std::string label = "group_commit_c" + std::to_string(clients);
    rows.push_back({DurabilityMode::kGroupCommit, clients, label});
  }
  double off_tps = 0;
  for (const auto& [mode, clients, label] : rows) {
    KvWorkloadOptions row_mb = mb;
    row_mb.num_clients = clients;
    const std::string mode_dir = dir + "_" + label;
    DbOptions opts = KvDbOptions(row_mb, "speculation", RunMode::kParallel, seed);
    opts.durability = mode;
    if (mode != DurabilityMode::kOff) opts.log_dir = mode_dir;
    opts.group_commit_window_us = static_cast<uint32_t>(*window_us);
    auto db = Database::Open(std::move(opts));

    ClosedLoopOptions loop;
    loop.num_clients = clients;
    loop.next = KvInvocations(row_mb, *db);
    loop.warmup = bench.warmup();
    loop.measure = bench.measure();
    Metrics m = RunClosedLoop(*db, loop);
    const DurabilityStats ds = db->Stats().durability;
    db->Close();

    std::printf("%-18s %8.0f txn/s  committed=%llu  batches=%llu avg_batch=%.1f "
                "fsyncs=%llu bytes=%llu\n",
                label.c_str(), m.Throughput(),
                static_cast<unsigned long long>(m.committed),
                static_cast<unsigned long long>(ds.batches), ds.avg_batch_size(),
                static_cast<unsigned long long>(ds.fsyncs),
                static_cast<unsigned long long>(ds.bytes_logged));
    if (m.committed == 0) {
      std::printf("ERROR: no transactions committed at %s\n", label.c_str());
      ok = false;
    }
    if (mode == DurabilityMode::kOff) off_tps = m.Throughput();
    if (mode == DurabilityMode::kGroupCommit && off_tps > 0) {
      std::printf("  group commit at %d clients keeps %.1f%% of off at %d clients\n", clients,
                  100.0 * m.Throughput() / off_tps, mb.num_clients);
    }
    results.push_back({label, m});
    db.reset();
    std::filesystem::remove_all(mode_dir);
  }

  // Phase 2 — parallel recovery. Build the log in async mode (no completion
  // gating, so the log fills at memory speed; a clean Close flushes it all),
  // then time two recoveries of the same directory.
  {
    DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, seed);
    opts.durability = DurabilityMode::kAsync;
    opts.log_dir = dir;
    auto db = Database::Open(std::move(opts));
    const ProcId proc = db->proc(kKvReadUpdateProc);
    const int64_t per_client = *recover_txns / mb.num_clients;
    std::vector<std::thread> threads;
    for (int c = 0; c < mb.num_clients; ++c) {
      threads.emplace_back([&, c]() {
        auto session = db->CreateSession();
        Rng rng(seed + static_cast<uint64_t>(c));
        for (int64_t i = 0; i < per_client; ++i) {
          session->Execute(proc, DrawKvTxn(mb, c, rng));
        }
      });
    }
    for (auto& t : threads) t.join();
    db->Close();
  }

  std::vector<RecoveryReport> w1_runs;
  std::vector<RecoveryReport> wp_runs;
  for (int i = 0; i < kRecoveryRuns; ++i) {
    w1_runs.push_back(TimeRecovery(mb, dir, 1, seed));
    wp_runs.push_back(TimeRecovery(mb, dir, mb.num_partitions, seed));
    std::printf("  recovery run %d: w1 %.4f s, w%d %.4f s\n", i + 1, w1_runs.back().seconds,
                mb.num_partitions, wp_runs.back().seconds);
  }
  std::filesystem::remove_all(dir);

  for (const auto* runs : {&w1_runs, &wp_runs}) {
    for (const RecoveryReport& r : *runs) {
      if (!r.ok) {
        std::printf("ERROR: recovery failed: %s\n", r.error.c_str());
        ok = false;
      }
      if (r.replayed != w1_runs[0].replayed) {
        std::printf("ERROR: replayed record count changed between runs (%llu vs %llu)\n",
                    static_cast<unsigned long long>(r.replayed),
                    static_cast<unsigned long long>(w1_runs[0].replayed));
        ok = false;
      }
    }
  }
  const RecoveryReport w1 = Median(w1_runs);
  const RecoveryReport wp = Median(wp_runs);
  const Metrics m1 = RecoveryRow(w1);
  const Metrics mp = RecoveryRow(wp);
  const double speedup = wp.seconds > 0 ? w1.seconds / wp.seconds : 0.0;
  std::printf("recover_w1   %8.0f records/s  (%llu records, median %.3f s, 1 worker)\n",
              m1.Throughput(), static_cast<unsigned long long>(w1.replayed), w1.seconds);
  std::printf("recover_w%-2d  %8.0f records/s  (%llu records, median %.3f s, %d workers)  "
              "speedup %.2fx\n",
              mb.num_partitions, mp.Throughput(),
              static_cast<unsigned long long>(wp.replayed), wp.seconds, mb.num_partitions,
              speedup);
  // The parallelism claim is only testable when the workers can actually run
  // concurrently; narrower hosts still emit the rows for the perf gate.
  const int cpus = AffinityCpuCount();
  if (cpus >= mb.num_partitions && mb.num_partitions > 1) {
    if (speedup < 1.5) {
      std::printf("ERROR: median parallel recovery speedup %.2fx < 1.5x on %d usable cpus\n",
                  speedup, cpus);
      ok = false;
    }
  } else {
    std::printf("  (speedup check skipped: %d usable cpus < %d workers)\n", cpus,
                mb.num_partitions);
  }
  results.push_back({"recover_w1", m1});
  results.push_back({"recover_w" + std::to_string(mb.num_partitions), mp});

  if (!json->empty()) {
    ok = WriteSchemeJson(*json, "recovery",
                         {{"partitions", mb.num_partitions},
                          {"clients", mb.num_clients},
                          {"mp_pct", *mp_pct},
                          {"window_us", *window_us},
                          {"recover_txns", *recover_txns},
                          {"measure_ms", *bench.measure_ms}},
                         results) &&
         ok;
  }
  return ok ? 0 : 1;
}

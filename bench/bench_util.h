// Shared helpers for the figure/table benchmark harnesses.
#ifndef PARTDB_BENCH_BENCH_UTIL_H_
#define PARTDB_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/affinity.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/types.h"
#include "db/database.h"
#include "db/serializability.h"
#include "net/event_loop.h"

namespace partdb {

/// Standard measurement flags shared by every figure harness. The defaults
/// are scaled down from the paper's 15 s + 60 s so that running every bench
/// binary stays fast; pass --warmup_ms/--measure_ms to restore paper scale.
struct BenchFlags {
  int64_t* warmup_ms;
  int64_t* measure_ms;
  int64_t* seed;
  std::string* csv;

  explicit BenchFlags(FlagSet* flags, int64_t warmup_default = 300,
                      int64_t measure_default = 1500) {
    warmup_ms = flags->AddInt64("warmup_ms", warmup_default, "warm-up window (virtual ms)");
    measure_ms =
        flags->AddInt64("measure_ms", measure_default, "measurement window (virtual ms)");
    seed = flags->AddInt64("seed", 12345, "simulation seed");
    csv = flags->AddString("csv", "", "also write results to this CSV file");
  }

  Duration warmup() const { return *warmup_ms * kMillisecond; }
  Duration measure() const { return *measure_ms * kMillisecond; }
};

inline std::string FmtInt(double v) { return StrFormat("%.0f", v); }
inline std::string FmtPct(double v) { return StrFormat("%.1f%%", v * 100.0); }
inline std::string Fmt2(double v) { return StrFormat("%.2f", v); }

/// One row of a self-verifying bench run. `scheme` is the registry name
/// ("blocking", "speculation", "locking", "occ", "mvcc", …) or, for a sweep,
/// the row label (e.g. "c64" for 64 connections).
struct SchemeResult {
  SchemeResult(std::string s, const Metrics& metrics) : scheme(std::move(s)), m(metrics) {}

  std::string scheme;
  Metrics m;
  /// Report-only, never gated; set by the in-process parallel benches
  /// (WithWindowCost) and the net benches (WithNetCost). Workers and event
  /// loops yield-spin before they park, trading CPU for wakes, and the wake
  /// rates and the CPU show that trade; msgs_per_push shows how many
  /// messages each mailbox lock acquisition carried.
  std::optional<double> wakes_per_kmsg;    // mailbox wakes per 1000 pushed messages
  std::optional<double> wakes_per_kframe;  // loop eventfd wakes per 1000 frames
  std::optional<double> cpu_us_per_txn;    // process CPU per committed transaction
  std::optional<double> msgs_per_push;     // pushed messages per producer lock
};

/// A row for `m` with the report-only costs of the window that produced it
/// (Database::last_window_cost).
inline SchemeResult WithWindowCost(std::string scheme, const Metrics& m,
                                   const Database::WindowCost& w) {
  SchemeResult r(std::move(scheme), m);
  const double msgs = static_cast<double>(w.mailbox_pushed);
  const double txns = static_cast<double>(m.committed);
  r.wakes_per_kmsg = msgs > 0 ? static_cast<double>(w.mailbox_wakes) * 1e3 / msgs : 0.0;
  r.cpu_us_per_txn = txns > 0 ? w.cpu_s * 1e6 / txns : 0.0;
  r.msgs_per_push =
      w.mailbox_push_batches > 0 ? msgs / static_cast<double>(w.mailbox_push_batches) : 0.0;
  return r;
}

/// A row for `m` served over loopback TCP, with report-only costs: the
/// eventfd wakes of the server's and the client's loops per 1000 frames they
/// moved (`io` sums both sides over the whole run), and the process CPU per
/// committed transaction over the window (the server database's
/// last_window_cost; client and server share the process).
inline SchemeResult WithNetCost(std::string scheme, const Metrics& m, const EventLoopStats& io,
                                const Database::WindowCost& w) {
  SchemeResult r(std::move(scheme), m);
  const double frames = static_cast<double>(io.frames_in + io.frames_out);
  const double txns = static_cast<double>(m.committed);
  r.wakes_per_kframe = frames > 0 ? static_cast<double>(io.wakeups) * 1e3 / frames : 0.0;
  r.cpu_us_per_txn = txns > 0 ? w.cpu_s * 1e6 / txns : 0.0;
  return r;
}

/// Writes the machine-readable results file the perf-tracking CI compares
/// across PRs (tools/check_bench.py): bench name, scalar config fields, the
/// host's online CPU count (numbers are only comparable across hosts of the
/// same width), and per-row throughput + committed count + latency
/// percentiles, then the row's report-only fields. Returns false (after
/// printing) when the file cannot be written.
inline bool WriteSchemeJson(const std::string& path, const char* bench_name,
                            const std::vector<std::pair<const char*, long long>>& config,
                            const std::vector<SchemeResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("ERROR: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_name);
  for (const auto& [key, value] : config) {
    std::fprintf(f, "  \"%s\": %lld,\n", key, value);
  }
  std::fprintf(f, "  \"host_cpus\": %d,\n", OnlineCpuCount());
  std::fprintf(f, "  \"schemes\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Metrics& m = results[i].m;
    std::fprintf(f,
                 "    {\"scheme\": \"%s\", \"txn_per_sec\": %.0f, "
                 "\"committed\": %llu, "
                 "\"sp_p50_us\": %.1f, \"sp_p99_us\": %.1f, "
                 "\"mp_p50_us\": %.1f, \"mp_p99_us\": %.1f",
                 results[i].scheme.c_str(), m.Throughput(),
                 static_cast<unsigned long long>(m.committed),
                 m.sp_latency.Percentile(50) / 1000.0, m.sp_latency.Percentile(99) / 1000.0,
                 m.mp_latency.Percentile(50) / 1000.0, m.mp_latency.Percentile(99) / 1000.0);
    if (results[i].wakes_per_kmsg) {
      std::fprintf(f, ", \"wakes_per_kmsg\": %.2f", *results[i].wakes_per_kmsg);
    }
    if (results[i].wakes_per_kframe) {
      std::fprintf(f, ", \"wakes_per_kframe\": %.2f", *results[i].wakes_per_kframe);
    }
    if (results[i].cpu_us_per_txn) {
      std::fprintf(f, ", \"cpu_us_per_txn\": %.2f", *results[i].cpu_us_per_txn);
    }
    if (results[i].msgs_per_push) {
      std::fprintf(f, ", \"msgs_per_push\": %.2f", *results[i].msgs_per_push);
    }
    std::fprintf(f, "}%s\n", i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// The self-verifying benches' check (requires log_commits): runs
/// CheckSerializable on the closed `db` and prints a verdict line tagged
/// `label`, with the check's wall time. Returns false on a violation.
inline bool ReportSerializable(Database& db, const char* label) {
  const auto start = std::chrono::steady_clock::now();
  const std::string error = CheckSerializable(db);
  const std::chrono::duration<double, std::milli> took = std::chrono::steady_clock::now() - start;
  std::printf("%s: %s%s (%d partitions, %.0f ms)\n", label,
              error.empty() ? "serializable, replay matches live state" : "FAILED: ",
              error.c_str(), db.options().num_partitions, took.count());
  return error.empty();
}

}  // namespace partdb

#endif  // PARTDB_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure/table benchmark harnesses.
#ifndef PARTDB_BENCH_BENCH_UTIL_H_
#define PARTDB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/affinity.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/types.h"
#include "db/database.h"
#include "engine/replay.h"

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
  std::string scheme;
  Metrics m;
};

/// Writes the machine-readable results file the perf-tracking CI compares
/// across PRs (tools/check_bench.py): bench name, scalar config fields, the
/// host's online CPU count (numbers are only comparable across hosts of the
/// same width), and per-row throughput + committed count + latency
/// percentiles. Returns false (after printing) when the file cannot be
/// written.
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
                 "\"mp_p50_us\": %.1f, \"mp_p99_us\": %.1f}%s\n",
                 results[i].scheme.c_str(), m.Throughput(),
                 static_cast<unsigned long long>(m.committed),
                 m.sp_latency.Percentile(50) / 1000.0, m.sp_latency.Percentile(99) / 1000.0,
                 m.mp_latency.Percentile(50) / 1000.0, m.mp_latency.Percentile(99) / 1000.0,
                 i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Final-state serializability check shared by the self-verifying benches:
/// replays each partition's commit log serially on a fresh engine and
/// compares against the live state (requires log_commits). Prints a verdict
/// line tagged `label`; returns false on any mismatch or replay-time abort.
inline bool VerifyReplay(Database& db, const char* label) {
  const int num_partitions = db.options().num_partitions;
  bool ok = true;
  for (PartitionId p = 0; p < num_partitions; ++p) {
    const uint64_t live = db.engine(p).StateHash();
    size_t aborted = 0;
    const uint64_t replayed =
        ReplayStateHash(db.options().engine_factory, p, db.commit_log(p), &aborted);
    if (aborted != 0) {
      std::printf("%s: partition %d had %zu committed txns abort on replay\n", label, p,
                  aborted);
      ok = false;
    }
    if (live != replayed) {
      std::printf("%s: partition %d replay MISMATCH (live=%016llx replay=%016llx)\n", label,
                  p, static_cast<unsigned long long>(live),
                  static_cast<unsigned long long>(replayed));
      ok = false;
    }
  }
  std::printf("%s: serial commit-log replay %s (%d partitions)\n", label,
              ok ? "matches live state" : "FAILED", num_partitions);
  return ok;
}

}  // namespace partdb

#endif  // PARTDB_BENCH_BENCH_UTIL_H_

// Parallel TPC-C, driven entirely through the public Database/Session API:
// the five TPC-C transactions registered as stored procedures, closed-loop
// logical clients over sessions, one run per concurrency-control scheme on
// thread-per-partition workers at wall-clock speed (ROADMAP's "scale
// benches" item: the paper's headline workload under RunParallel). Verifies
// final-state serializability by replaying each partition's commit log
// serially on a fresh engine, checks the TPC-C consistency conditions on the
// final database, and emits machine-readable results to
// BENCH_tpcc_parallel.json so the perf trajectory is tracked across PRs.
#include <memory>
#include <string>

#include "bench_util.h"
#include "cc/scheme_registry.h"
#include "common/flags.h"
#include "db/closed_loop.h"
#include "tpcc/tpcc_consistency.h"
#include "tpcc/tpcc_procedures.h"

using namespace partdb;
using namespace partdb::tpcc;

int main(int argc, char** argv) {
  FlagSet flags;
  BenchFlags bench(&flags, /*warmup_default=*/200, /*measure_default=*/1000);
  int64_t* partitions = flags.AddInt64("partitions", 4, "partition worker threads");
  int64_t* clients = flags.AddInt64("clients", 32, "closed-loop logical clients (sessions)");
  int64_t* warehouses = flags.AddInt64("warehouses", 8, "TPC-C warehouses");
  int64_t* items = flags.AddInt64("items", 2000, "items per warehouse (spec: 100000)");
  int64_t* customers = flags.AddInt64("customers", 120, "customers per district (spec: 3000)");
  int64_t* verify = flags.AddInt64("verify", 1, "replay commit logs + consistency check");
  std::string* json =
      flags.AddString("json", "BENCH_tpcc_parallel.json", "machine-readable results");
  if (!flags.Parse(argc, argv)) return 0;

  TpccWorkloadConfig wl;
  wl.scale.num_warehouses = static_cast<int>(*warehouses);
  wl.scale.num_partitions = static_cast<int>(*partitions);
  wl.scale.items = static_cast<int>(*items);
  wl.scale.customers_per_district = static_cast<int>(*customers);
  wl.scale.initial_orders_per_district = static_cast<int>(*customers);
  const uint64_t seed = static_cast<uint64_t>(*bench.seed);

  std::printf(
      "parallel TPC-C via Database/Session: %d partition threads, %d sessions, "
      "%d warehouses (~%.1f%% multi-partition)\n",
      wl.scale.num_partitions, static_cast<int>(*clients), wl.scale.num_warehouses,
      wl.MultiPartitionProbability() * 100);

  bool ok = true;
  std::vector<SchemeResult> results;
  for (const std::string& scheme : CcSchemeRegistry::Global().Names()) {
    DbOptions opts = TpccDbOptions(wl.scale, scheme, RunMode::kParallel,
                                   static_cast<int>(*clients), seed);
    opts.log_commits = *verify != 0;
    auto db = Database::Open(std::move(opts));

    ClosedLoopOptions loop;
    loop.num_clients = static_cast<int>(*clients);
    loop.next = TpccInvocations(wl, *db);
    loop.warmup = bench.warmup();
    loop.measure = bench.measure();
    Metrics m = RunClosedLoop(*db, loop);
    db->Close();

    std::printf("%-12s %8.0f txn/s  committed=%llu (sp=%llu mp=%llu)  "
                "aborts=%llu deadlocks=%llu timeouts=%llu\n",
                scheme.c_str(), m.Throughput(),
                static_cast<unsigned long long>(m.committed),
                static_cast<unsigned long long>(m.sp_committed),
                static_cast<unsigned long long>(m.mp_committed),
                static_cast<unsigned long long>(m.user_aborts),
                static_cast<unsigned long long>(m.local_deadlocks),
                static_cast<unsigned long long>(m.timeout_aborts));
    std::printf("  sp latency: %s\n", m.sp_latency.Summary(1e-3).c_str());
    if (m.mp_latency.count() > 0) {
      std::printf("  mp latency: %s\n", m.mp_latency.Summary(1e-3).c_str());
    }
    // Per-procedure breakdown of the measurement window (Metrics::procs,
    // indexed by the registry's procedure ids).
    uint64_t proc_committed = 0, proc_aborts = 0;
    for (size_t i = 0; i < m.procs.size(); ++i) {
      const Metrics::ProcOutcomes& ps = m.procs[i];
      std::printf("  %-14s committed=%-8llu aborts=%-6llu p50=%7.1fus p99=%7.1fus\n",
                  db->registry().Get(static_cast<ProcId>(i)).name.c_str(),
                  static_cast<unsigned long long>(ps.committed),
                  static_cast<unsigned long long>(ps.user_aborts),
                  ps.latency.Percentile(50) / 1000.0, ps.latency.Percentile(99) / 1000.0);
      proc_committed += ps.committed;
      proc_aborts += ps.user_aborts;
    }
    if (proc_committed != m.committed || proc_aborts != m.user_aborts) {
      std::printf("ERROR: per-proc stats (%llu/%llu) do not decompose the window "
                  "(%llu/%llu) under %s\n",
                  static_cast<unsigned long long>(proc_committed),
                  static_cast<unsigned long long>(proc_aborts),
                  static_cast<unsigned long long>(m.committed),
                  static_cast<unsigned long long>(m.user_aborts), scheme.c_str());
      ok = false;
    }
    if (m.committed == 0) {
      std::printf("ERROR: no transactions committed under %s\n", scheme.c_str());
      ok = false;
    }
    if (*verify != 0) {
      ok = VerifyReplay(*db, scheme.c_str()) && ok;
      std::vector<const TpccDb*> dbs;
      for (PartitionId p = 0; p < wl.scale.num_partitions; ++p) {
        dbs.push_back(&static_cast<TpccEngine&>(db->engine(p)).db());
      }
      const auto violations = CheckConsistency(dbs);
      if (!violations.empty()) {
        std::printf("%s: TPC-C consistency VIOLATION: %s\n", scheme.c_str(),
                    violations.front().c_str());
        ok = false;
      }
    }
    results.push_back({scheme, m});
  }

  if (!json->empty()) {
    ok = WriteSchemeJson(*json, "tpcc_parallel",
                         {{"partitions", wl.scale.num_partitions},
                          {"clients", *clients},
                          {"warehouses", *warehouses},
                          {"measure_ms", *bench.measure_ms}},
                         results) &&
         ok;
  }

  return ok ? 0 : 1;
}

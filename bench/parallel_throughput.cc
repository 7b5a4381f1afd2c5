// Parallel runtime throughput, driven entirely through the public
// Database/Session API: the paper's microbenchmark procedure registered in a
// ProcedureRegistry, closed-loop logical clients running over sessions, one
// run per concurrency-control scheme on thread-per-partition workers at
// wall-clock speed. Verifies final-state serializability by replaying each
// partition's commit log serially on a fresh engine, cross-checks the
// speculative scheme on the deterministic simulator, and emits
// machine-readable results to BENCH_parallel_throughput.json so the perf
// trajectory is tracked across PRs.
#include <memory>
#include <string>

#include "bench_util.h"
#include "cc/scheme_registry.h"
#include "common/affinity.h"
#include "common/flags.h"
#include "db/closed_loop.h"
#include "kv/kv_procedures.h"

using namespace partdb;

int main(int argc, char** argv) {
  FlagSet flags;
  BenchFlags bench(&flags, /*warmup_default=*/200, /*measure_default=*/1000);
  int64_t* partitions = flags.AddInt64("partitions", 4, "partition worker threads");
  int64_t* clients = flags.AddInt64("clients", 40, "closed-loop logical clients (sessions)");
  int64_t* mp_pct = flags.AddInt64("mp_pct", 10, "multi-partition transaction percentage");
  int64_t* read_only_pct =
      flags.AddInt64("read_only_pct", 50, "read-only transaction percentage");
  int64_t* verify = flags.AddInt64("verify", 1, "replay commit logs + sim cross-check");
  int64_t* pin = flags.AddInt64("pin", 0, "pin partition workers round-robin over all CPUs");
  std::string* json =
      flags.AddString("json", "BENCH_parallel_throughput.json", "machine-readable results");
  if (!flags.Parse(argc, argv)) return 0;

  KvWorkloadOptions mb;
  mb.num_partitions = static_cast<int>(*partitions);
  mb.num_clients = static_cast<int>(*clients);
  mb.mp_fraction = static_cast<double>(*mp_pct) / 100.0;
  mb.read_only_fraction = static_cast<double>(*read_only_pct) / 100.0;
  const uint64_t seed = static_cast<uint64_t>(*bench.seed);

  std::printf("parallel runtime via Database/Session: %d partition threads, %d sessions, "
              "%d%% multi-partition, %d%% read-only\n",
              mb.num_partitions, mb.num_clients, static_cast<int>(*mp_pct),
              static_cast<int>(*read_only_pct));

  bool ok = true;
  std::vector<SchemeResult> results;
  for (const std::string& scheme : CcSchemeRegistry::Global().Names()) {
    DbOptions opts = KvDbOptions(mb, scheme, RunMode::kParallel, seed);
    opts.log_commits = *verify != 0;
    opts.worker_affinity.pin = *pin != 0;
    auto db = Database::Open(std::move(opts));

    ClosedLoopOptions loop;
    loop.num_clients = mb.num_clients;
    loop.next = KvInvocations(mb, *db);
    loop.warmup = bench.warmup();
    loop.measure = bench.measure();
    Metrics m = RunClosedLoop(*db, loop);
    const ParallelRuntime::Stats rs = db->Stats().runtime;
    db->Close();

    std::printf("%-12s %8.0f txn/s  committed=%llu (sp=%llu mp=%llu)\n",
                scheme.c_str(), m.Throughput(),
                static_cast<unsigned long long>(m.committed),
                static_cast<unsigned long long>(m.sp_committed),
                static_cast<unsigned long long>(m.mp_committed));
    std::printf("  sp latency: %s\n", m.sp_latency.Summary(1e-3).c_str());
    if (m.mp_latency.count() > 0) {
      std::printf("  mp latency: %s\n", m.mp_latency.Summary(1e-3).c_str());
    }
    // Hot-path anatomy: mailbox traffic and the park/wake discipline (wakes
    // per item ~ 0 at saturation).
    std::printf("  mailbox: pushed=%llu wakes=%llu parks=%llu  pinned=%d/%d workers\n",
                static_cast<unsigned long long>(rs.mailbox_pushed),
                static_cast<unsigned long long>(rs.mailbox_wakes),
                static_cast<unsigned long long>(rs.mailbox_parks), rs.pinned_workers,
                rs.num_workers);
    if (m.committed == 0) {
      std::printf("ERROR: no transactions committed under %s\n", scheme.c_str());
      ok = false;
    }
    if (*verify != 0) {
      ok = VerifyReplay(*db, scheme.c_str()) && ok;
    }
    results.push_back({scheme, m});
  }

  if (*verify != 0) {
    // Cross-check: the same procedure/sessions path on the deterministic
    // simulator must also pass serial-replay equivalence.
    DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kSimulated, seed);
    opts.log_commits = true;
    auto db = Database::Open(std::move(opts));
    ClosedLoopOptions loop;
    loop.num_clients = mb.num_clients;
    loop.next = KvInvocations(mb, *db);
    loop.warmup = bench.warmup();
    loop.measure = bench.measure();
    Metrics sm = RunClosedLoop(*db, loop);
    db->Close();
    std::printf("sim cross-check: %.0f txn/s (virtual), %llu events\n", sm.Throughput(),
                static_cast<unsigned long long>(db->sim().events_processed()));
    ok = VerifyReplay(*db, "sim") && ok;
  }

  if (!json->empty()) {
    ok = WriteSchemeJson(*json, "parallel_throughput",
                         {{"partitions", mb.num_partitions},
                          {"clients", mb.num_clients},
                          {"mp_pct", *mp_pct},
                          {"read_only_pct", *read_only_pct},
                          {"measure_ms", *bench.measure_ms},
                          {"pin", *pin}},
                         results) &&
         ok;
  }

  return ok ? 0 : 1;
}

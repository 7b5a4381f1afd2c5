// Quickstart: open an embedded two-partition main-memory database, register
// a stored procedure, and run transactions through a Session — then compare
// the paper's concurrency-control schemes under closed-loop load. This is
// the smallest end-to-end use of the public Database/Session API.
//
//   $ ./build/example_quickstart
//
#include <cstdio>
#include <memory>
#include <string>

#include "cc/scheme_registry.h"
#include "db/closed_loop.h"
#include "kv/kv_procedures.h"

using namespace partdb;

int main() {
  // 1. Describe the data and the stored procedure. The microbenchmark engine
  //    owns one key-value partition per DbOptions::num_partitions; the
  //    registered procedure reads a set of keys and increments them, with
  //    routing (which partitions, how many rounds) derived from its
  //    arguments by the procedure's router.
  KvWorkloadOptions data;
  data.num_partitions = 2;
  data.num_clients = 40;  // pre-populated key namespaces

  DbOptions options;
  options.mode = RunMode::kSimulated;  // deterministic virtual clock
  options.num_partitions = data.num_partitions;
  options.max_sessions = 1;
  options.engine_factory = MakeKvEngineFactory(data);
  options.procedures.push_back(KvReadUpdateProcedure(data));

  // 2. Open the database and execute transactions through a session.
  //    Execute blocks until the transaction commits or user-aborts; Submit
  //    is the asynchronous variant (callback on completion).
  {
    auto db = Database::Open(options);
    auto session = db->CreateSession();

    auto args = std::make_shared<KvArgs>();  // 3 keys on partition 0
    args->keys.resize(data.num_partitions);
    for (int i = 0; i < 3; ++i) args->keys[0].push_back(MicrobenchKey(0, 0, i));

    TxnResult r = session->Execute(kKvReadUpdateProc, args);
    std::printf("single-partition txn: committed=%d latency=%lld ns attempts=%u\n",
                r.committed, static_cast<long long>(r.latency_ns), r.attempts);

    auto mp = std::make_shared<KvArgs>();  // 2+2 keys across both partitions
    mp->keys.resize(data.num_partitions);
    for (PartitionId p = 0; p < 2; ++p) {
      for (int i = 0; i < 2; ++i) mp->keys[p].push_back(MicrobenchKey(0, p, i));
    }
    r = session->Execute(kKvReadUpdateProc, mp);
    std::printf("multi-partition txn:  committed=%d latency=%lld ns\n", r.committed,
                static_cast<long long>(r.latency_ns));
  }

  // 3. Compare the paper's schemes under load: 40 closed-loop logical
  //    clients over sessions, 10% multi-partition transactions, on the
  //    deterministic simulator (modeled network + CPU costs). Swap
  //    options.mode to RunMode::kParallel for real thread-per-partition
  //    execution at hardware speed.
  KvWorkloadOptions workload_cfg = data;
  workload_cfg.mp_fraction = 0.10;
  std::printf("\n40 closed-loop clients, 10%% multi-partition, 500 ms window:\n");
  // Every concurrency-control scheme in the registry, in table order (the
  // paper's four plus any extensions such as MVCC).
  for (const std::string& scheme : CcSchemeRegistry::Global().Names()) {
    DbOptions o = options;
    o.scheme = scheme;
    o.max_sessions = workload_cfg.num_clients;
    auto db = Database::Open(o);

    ClosedLoopOptions loop;
    loop.num_clients = workload_cfg.num_clients;
    loop.next = KvInvocations(workload_cfg, *db);
    loop.warmup = Micros(100000);
    loop.measure = Micros(500000);
    Metrics m = RunClosedLoop(*db, loop);

    std::printf("%-12s %8.0f txn/s  (sp p50 %5.0f us, mp p50 %5.0f us)  %s\n",
                scheme.c_str(), m.Throughput(), m.sp_latency.Percentile(50) / 1000.0,
                m.mp_latency.Percentile(50) / 1000.0,
                scheme == "speculation" ? "<- the paper's contribution" : "");
  }
  std::printf(
      "\nSpeculation wins here because 10%% multi-partition transactions leave\n"
      "2PC stalls that it fills with useful (speculative) work. See DESIGN.md\n"
      "and the bench/ harnesses for the full experiment suite.\n");
  return 0;
}

// tpcc_demo: run the full TPC-C mix (the paper's §5.5 configuration) under
// every registered scheme through the public embedded API — TPC-C registered as
// stored procedures, closed-loop clients over Database/Session on the
// deterministic simulator — then verify the TPC-C consistency conditions on
// the final database, the workload the paper's introduction motivates.
//
//   $ ./build/example_tpcc_demo
//
#include <cstdio>
#include <memory>
#include <string>

#include "cc/scheme_registry.h"
#include "db/closed_loop.h"
#include "tpcc/tpcc_consistency.h"
#include "tpcc/tpcc_procedures.h"

using namespace partdb;
using namespace partdb::tpcc;

int main() {
  TpccWorkloadConfig workload;
  workload.scale.num_warehouses = 6;
  workload.scale.num_partitions = 2;
  workload.scale.items = 2000;                      // scaled from the spec's 100k
  workload.scale.customers_per_district = 120;      // scaled from 3000
  workload.scale.initial_orders_per_district = 120;

  std::printf(
      "TPC-C: %d warehouses over %d partitions, full mix "
      "(NewOrder %d%% / Payment %d%% / rest %d%%), ~%.1f%% multi-partition\n\n",
      workload.scale.num_warehouses, workload.scale.num_partitions, workload.pct_new_order,
      workload.pct_payment, 100 - workload.pct_new_order - workload.pct_payment,
      workload.MultiPartitionProbability() * 100);

  const int kClients = 40;
  for (const std::string& scheme : CcSchemeRegistry::Global().Names()) {
    auto db = Database::Open(TpccDbOptions(workload.scale, scheme, RunMode::kSimulated,
                                           kClients, /*seed=*/12345));
    ClosedLoopOptions loop;
    loop.num_clients = kClients;
    loop.next = TpccInvocations(workload, *db);
    loop.warmup = Micros(100000);
    loop.measure = Micros(500000);
    Metrics m = RunClosedLoop(*db, loop);
    db->Close();  // drains the cluster to a quiescent state

    std::vector<const TpccDb*> dbs;
    for (PartitionId p = 0; p < workload.scale.num_partitions; ++p) {
      dbs.push_back(&static_cast<TpccEngine&>(db->engine(p)).db());
    }
    const auto violations = CheckConsistency(dbs);

    std::printf("%-12s %8.0f txn/s  new-order aborts=%llu  deadlocks=%llu timeouts=%llu  %s\n",
                scheme.c_str(), m.Throughput(),
                static_cast<unsigned long long>(m.user_aborts),
                static_cast<unsigned long long>(m.local_deadlocks),
                static_cast<unsigned long long>(m.timeout_aborts),
                violations.empty() ? "consistency: OK" : violations.front().c_str());
    if (!violations.empty()) return 1;
  }
  return 0;
}

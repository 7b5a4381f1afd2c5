// TPC-C end-to-end: the full mix runs under every scheme through the
// Database/Session ingress path on the deterministic simulator; afterwards
// the database must satisfy the TPC-C consistency conditions, match a serial
// replay of the commit logs, and agree on multi-partition commit order
// across partitions.
#include <string>

#include "db/closed_loop.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "tpcc/tpcc_consistency.h"
#include "tpcc/tpcc_procedures.h"

namespace partdb {
namespace {

using tpcc::CheckConsistency;
using tpcc::MakeTpccEngineFactory;
using tpcc::TpccDbOptions;
using tpcc::TpccEngine;
using tpcc::TpccInvocations;
using tpcc::TpccScale;
using tpcc::TpccWorkloadConfig;

TpccScale SmallScale() {
  TpccScale s;
  s.num_warehouses = 4;
  s.num_partitions = 2;
  s.items = 200;
  s.customers_per_district = 30;
  s.initial_orders_per_district = 30;
  return s;
}

/// One simulated closed-loop TPC-C run. The database stays open (Close
/// quiesces the simulator) so callers can inspect engines and commit logs.
struct TpccRun {
  std::unique_ptr<Database> db;
  Metrics metrics;
};

TpccRun RunTpccSim(const TpccWorkloadConfig& wl, const std::string& scheme, int clients,
                   uint64_t seed, uint64_t load_seed, Duration warmup, Duration measure,
                   bool log_commits = false, int replication = 1,
                   bool backups_execute = false) {
  DbOptions opts = TpccDbOptions(wl.scale, scheme, RunMode::kSimulated, clients, seed);
  opts.engine_factory = MakeTpccEngineFactory(wl.scale, load_seed);
  opts.log_commits = log_commits;
  opts.replication = replication;
  opts.backups_execute = backups_execute;
  TpccRun run;
  run.db = Database::Open(std::move(opts));
  ClosedLoopOptions loop;
  loop.num_clients = clients;
  loop.next = TpccInvocations(wl, *run.db);
  loop.warmup = warmup;
  loop.measure = measure;
  run.metrics = RunClosedLoop(*run.db, loop);
  run.db->Close();
  return run;
}

struct TpccParam {
  const char* scheme;
  double remote_item_prob;
  int pct_new_order;  // rest of the mix scales accordingly
  uint64_t seed;
};

std::string TpccParamName(const ::testing::TestParamInfo<TpccParam>& info) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s_rem%d_no%d_s%llu", info.param.scheme,
                static_cast<int>(info.param.remote_item_prob * 100), info.param.pct_new_order,
                static_cast<unsigned long long>(info.param.seed));
  return buf;
}

class TpccIntegration : public ::testing::TestWithParam<TpccParam> {};

TEST_P(TpccIntegration, ConsistentAndSerializable) {
  const TpccParam& param = GetParam();
  TpccWorkloadConfig wl;
  wl.scale = SmallScale();
  wl.remote_item_prob = param.remote_item_prob;
  if (param.pct_new_order == 100) {
    wl.pct_new_order = 100;
    wl.pct_payment = wl.pct_order_status = wl.pct_delivery = wl.pct_stock_level = 0;
  }

  TpccRun run = RunTpccSim(wl, param.scheme, /*clients=*/12, param.seed,
                           /*load_seed=*/1000 + param.seed, Micros(20000), Micros(150000),
                           /*log_commits=*/true);
  const Metrics& m = run.metrics;
  Database& db = *run.db;

  EXPECT_GT(m.completions(), 50u) << m.Summary();

  // TPC-C consistency conditions over the whole (partitioned) database.
  std::vector<const tpcc::TpccDb*> dbs;
  for (PartitionId p = 0; p < wl.scale.num_partitions; ++p) {
    dbs.push_back(&static_cast<TpccEngine&>(db.engine(p)).db());
  }
  auto violations = CheckConsistency(dbs);
  EXPECT_TRUE(violations.empty()) << violations.front() << " [" << m.Summary() << "]";

  EXPECT_EQ(CheckSerializable(db), "") << param.scheme;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TpccIntegration,
    ::testing::Values(TpccParam{"blocking", 0.01, 45, 1},
                      TpccParam{"speculation", 0.01, 45, 1},
                      TpccParam{"locking", 0.01, 45, 1},
                      // Remote-heavy NewOrder-only (fig. 9 regime, deadlocks
                      // under locking).
                      TpccParam{"blocking", 0.2, 100, 2},
                      TpccParam{"speculation", 0.2, 100, 2},
                      TpccParam{"locking", 0.2, 100, 2},
                      // Different seeds for the full mix.
                      TpccParam{"speculation", 0.05, 45, 3},
                      TpccParam{"locking", 0.05, 45, 3},
                      TpccParam{"blocking", 0.05, 45, 4},
                      TpccParam{"speculation", 0.01, 45, 5},
                      // OCC extension (paper §5.7).
                      TpccParam{"occ", 0.01, 45, 6},
                      TpccParam{"occ", 0.2, 100, 7},
                      TpccParam{"occ", 0.05, 45, 8},
                      // MVCC extension (snapshot reads).
                      TpccParam{"mvcc", 0.01, 45, 9},
                      TpccParam{"mvcc", 0.2, 100, 10},
                      TpccParam{"mvcc", 0.05, 45, 11}),
    TpccParamName);

TEST(TpccIntegrationExtra, LockingUnderContentionMakesProgress) {
  // One warehouse pair, many clients: everything fights over the same
  // districts.
  TpccWorkloadConfig wl;
  wl.scale = SmallScale();
  wl.scale.num_warehouses = 2;
  TpccRun run = RunTpccSim(wl, "locking", /*clients=*/16, /*seed=*/9,
                           /*load_seed=*/77, Micros(20000), Micros(100000));
  EXPECT_GT(run.metrics.completions(), 50u) << run.metrics.Summary();
  EXPECT_GT(run.metrics.locked_txns, 0u);
}

TEST(TpccIntegrationExtra, ReplicatedTpccBackupConverges) {
  TpccWorkloadConfig wl;
  wl.scale = SmallScale();
  TpccRun run = RunTpccSim(wl, "speculation", /*clients=*/8, /*seed=*/31,
                           /*load_seed=*/31, Micros(20000), Micros(80000),
                           /*log_commits=*/false, /*replication=*/2,
                           /*backups_execute=*/true);
  EXPECT_GT(run.metrics.completions(), 50u);
  for (PartitionId p = 0; p < 2; ++p) {
    EXPECT_EQ(run.db->engine(p).StateHash(),
              run.db->backup_engine(p, 0).StateHash())
        << "backup " << p;
  }
}

}  // namespace
}  // namespace partdb

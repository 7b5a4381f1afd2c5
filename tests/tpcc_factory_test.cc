// TPC-C engine factory: the replicated tables are loaded once per factory,
// and every engine the factory makes (primaries, backups, and the replay
// engines of CheckSerializable) shares that one copy.
#include <memory>
#include <utility>
#include <vector>

#include "db/closed_loop.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "tpcc/tpcc_procedures.h"

namespace partdb {
namespace {

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

// Every engine reads the same items and stock_info tables, and sharing them
// changes no result: the backups converge and the history replays.
TEST(TpccEngineFactory, EveryEngineSharesOneReplicatedCopy) {
  TpccWorkloadConfig wl;
  wl.scale = SmallScale();
  DbOptions opts = TpccDbOptions(wl.scale, "speculation", RunMode::kSimulated, 8, 31);
  opts.log_commits = true;
  opts.replication = 2;
  opts.backups_execute = true;
  // The replicated tables of every engine the factory makes, in order.
  std::vector<std::pair<const void*, const void*>> made;
  opts.engine_factory = [inner = opts.engine_factory, &made](PartitionId p) {
    std::unique_ptr<Engine> engine = inner(p);
    const tpcc::TpccDb& db = static_cast<TpccEngine&>(*engine).db();
    made.emplace_back(&db.items, &db.stock_info);
    return engine;
  };
  std::unique_ptr<Database> db = Database::Open(std::move(opts));
  ClosedLoopOptions loop;
  loop.num_clients = 8;
  loop.next = TpccInvocations(wl, *db);
  loop.warmup = Micros(20000);
  loop.measure = Micros(80000);
  const Metrics metrics = RunClosedLoop(*db, loop);
  db->Close();
  EXPECT_GT(metrics.completions(), 50u);

  const tpcc::TpccDb& first = static_cast<TpccEngine&>(db->engine(0)).db();
  for (PartitionId p = 0; p < wl.scale.num_partitions; ++p) {
    for (Engine* e : {&db->engine(p), &db->backup_engine(p, 0)}) {
      const tpcc::TpccDb& other = static_cast<TpccEngine&>(*e).db();
      EXPECT_EQ(&other.items, &first.items) << "partition " << p;
      EXPECT_EQ(&other.stock_info, &first.stock_info) << "partition " << p;
    }
    EXPECT_EQ(db->engine(p).StateHash(), db->backup_engine(p, 0).StateHash()) << "backup " << p;
  }
  const size_t live_engines = made.size();
  EXPECT_EQ(live_engines, 4u);  // two primaries, one backup each

  EXPECT_EQ(CheckSerializable(*db), "");
  EXPECT_GT(made.size(), live_engines);  // the replay engines
  for (const auto& [items, stock_info] : made) {
    EXPECT_EQ(items, &first.items);
    EXPECT_EQ(stock_info, &first.stock_info);
  }
}

}  // namespace
}  // namespace partdb

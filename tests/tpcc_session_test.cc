// TPC-C over the public Database/Session ingress path: registered-procedure
// routing, user-abort propagation through TxnResult, concurrent multi-session
// NewOrder submission under the parallel runtime for every scheme
// (replay-verified + TPC-C consistency), and a regression guard that the
// sim-mode fig08/fig09 metrics are unchanged from the pre-migration
// Cluster/ClientActor harness (goldens captured from the seed harness).
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/closed_loop.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "tpcc/tpcc_consistency.h"
#include "tpcc/tpcc_procedures.h"

namespace partdb {
namespace {

using tpcc::CheckConsistency;
using tpcc::DrawTpccTxn;
using tpcc::NewOrderArgs;
using tpcc::PaymentArgs;
using tpcc::RouteTpcc;
using tpcc::TpccDbOptions;
using tpcc::TpccDraw;
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

std::shared_ptr<NewOrderArgs> HomeOrder(int32_t w, int32_t item) {
  auto args = std::make_shared<NewOrderArgs>();
  args->w_id = w;
  args->d_id = 1;
  args->c_id = 1;
  args->entry_d = 1;
  NewOrderArgs::Line line;
  line.i_id = item;
  line.supply_w_id = w;
  line.quantity = 1;
  args->lines.push_back(line);
  return args;
}

TEST(TpccProcedures, RoutersDeriveLegacyRoutingFacts) {
  const TpccScale scale = SmallScale();  // warehouses 1,2 -> partition 0; 3,4 -> 1

  auto home = HomeOrder(1, 5);
  TxnRouting r = RouteTpcc(scale, *home);
  EXPECT_TRUE(r.single_partition());
  EXPECT_EQ(r.participants, std::vector<PartitionId>{0});
  EXPECT_FALSE(r.can_abort);  // items validate before any write: no undo

  // A remote supply line adds its partition after the home partition.
  auto remote = HomeOrder(1, 5);
  NewOrderArgs::Line line;
  line.i_id = 6;
  line.supply_w_id = 4;
  line.quantity = 2;
  remote->lines.push_back(line);
  r = RouteTpcc(scale, *remote);
  EXPECT_EQ(r.participants, (std::vector<PartitionId>{0, 1}));
  EXPECT_EQ(r.rounds, 1);

  auto pay = std::make_shared<PaymentArgs>();
  pay->w_id = 1;
  pay->d_id = 1;
  pay->c_w_id = 3;  // remote customer warehouse
  pay->c_d_id = 2;
  pay->c_id = 7;
  r = RouteTpcc(scale, *pay);
  EXPECT_EQ(r.participants, (std::vector<PartitionId>{0, 1}));

  pay->c_w_id = 2;  // same partition as home: single-partition payment
  EXPECT_TRUE(RouteTpcc(scale, *pay).single_partition());
}

TEST(TpccProcedures, RegistersAllFiveWithDatabase) {
  auto db = Database::Open(
      TpccDbOptions(SmallScale(), "speculation", RunMode::kSimulated, 1, 7));
  EXPECT_EQ(db->registry().size(), 5u);
  for (const char* name : {tpcc::kTpccNewOrderProc, tpcc::kTpccPaymentProc,
                           tpcc::kTpccOrderStatusProc, tpcc::kTpccDeliveryProc,
                           tpcc::kTpccStockLevelProc}) {
    EXPECT_NE(db->registry().Find(name), kInvalidProc) << name;
  }
}

// An invalid item id (the 1% rollback case) must surface as a user abort in
// TxnResult on both execution contexts — including the multi-partition path.
TEST(TpccSession, UserAbortPropagatesThroughTxnResult) {
  const TpccScale scale = SmallScale();
  for (RunMode mode : {RunMode::kSimulated, RunMode::kParallel}) {
    auto db =
        Database::Open(TpccDbOptions(scale, "speculation", mode, 1, 11));
    auto session = db->CreateSession();

    TxnResult good = session->Execute(tpcc::kTpccNewOrderProc, HomeOrder(1, 5));
    EXPECT_TRUE(good.committed);
    ASSERT_NE(good.payload, nullptr);

    TxnResult bad =
        session->Execute(tpcc::kTpccNewOrderProc, HomeOrder(1, scale.items + 1));
    EXPECT_FALSE(bad.committed);
    EXPECT_EQ(bad.payload, nullptr);

    // Multi-partition NewOrder with an invalid item aborts on every
    // participant and still reports the user abort.
    auto mp = HomeOrder(1, scale.items + 1);
    NewOrderArgs::Line line;
    line.i_id = 5;
    line.supply_w_id = 4;
    line.quantity = 1;
    mp->lines.push_back(line);
    TxnResult mp_bad = session->Execute(tpcc::kTpccNewOrderProc, mp);
    EXPECT_FALSE(mp_bad.committed);

    session.reset();
    db->Close();
  }
}

class TpccConcurrentSessions : public ::testing::TestWithParam<const char*> {};

// Many driver threads, each with its own session, submit NewOrder (with
// remote stock lines forcing multi-partition 2PC) concurrently under the
// parallel runtime; the history must replay serially and satisfy the TPC-C
// consistency conditions.
TEST_P(TpccConcurrentSessions, NewOrderSerializableUnderSubmit) {
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 120;
  TpccWorkloadConfig wl;
  wl.scale = SmallScale();
  wl.pct_new_order = 100;
  wl.pct_payment = wl.pct_order_status = wl.pct_delivery = wl.pct_stock_level = 0;
  wl.remote_item_prob = 0.2;  // multi-partition-heavy (fig. 9 regime)

  DbOptions opts = TpccDbOptions(wl.scale, GetParam(), RunMode::kParallel, kThreads, 23);
  opts.log_commits = true;
  auto db = Database::Open(std::move(opts));
  const ProcId new_order = db->proc(tpcc::kTpccNewOrderProc);

  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> user_aborts{0};
  std::atomic<uint64_t> invalid_generated{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(900 + static_cast<uint64_t>(t));
      auto session = db->CreateSession();
      for (int i = 0; i < kTxnsPerThread; ++i) {
        TpccDraw draw = DrawTpccTxn(wl, t, rng);
        const auto& args = static_cast<const NewOrderArgs&>(*draw.args);
        for (const auto& line : args.lines) {
          if (line.i_id > wl.scale.items) {
            invalid_generated++;
            break;
          }
        }
        if (i % 2 == 0) {
          TxnResult r = session->Execute(new_order, std::move(draw.args));
          (r.committed ? committed : user_aborts)++;
        } else {
          session->Submit(new_order, std::move(draw.args), [&](const TxnResult& r) {
            (r.committed ? committed : user_aborts)++;
          });
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  db->Close();

  EXPECT_EQ(committed + user_aborts, static_cast<uint64_t>(kThreads) * kTxnsPerThread);
  // Exactly the generated invalid-item transactions user-abort (system aborts
  // are retried internally and never surface).
  EXPECT_EQ(user_aborts, invalid_generated);
  EXPECT_GT(committed, 0u);

  EXPECT_EQ(CheckSerializable(*db), "") << GetParam();
  std::vector<const tpcc::TpccDb*> dbs;
  for (PartitionId p = 0; p < wl.scale.num_partitions; ++p) {
    dbs.push_back(&static_cast<TpccEngine&>(db->engine(p)).db());
  }
  const auto violations = CheckConsistency(dbs);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

INSTANTIATE_TEST_SUITE_P(Schemes, TpccConcurrentSessions,
                         ::testing::Values("blocking", "speculation", "locking", "occ",
                                           "mvcc"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// --- fig08/fig09 sim-mode parity regression ---------------------------------
//
// The session-based figure harness must reproduce the pre-migration
// Cluster/ClientActor harness exactly: same per-client random streams
// (ClientStreamSeed + ascending session slots), inline closed-loop
// resubmission (no extra ingress hop or CPU charge), and routing re-derived
// by the registered procedures. These goldens were captured from the seed
// harness at the migration commit; any drift means the session path no
// longer models the paper's client library the way the figures assume.

struct FigGolden {
  const char* name;
  uint64_t committed, sp_committed, mp_committed, user_aborts;
  uint64_t local_deadlocks, timeout_aborts, txn_retries;
  uint64_t sp_count, mp_count;
  Duration partition_busy_ns;
};

constexpr FigGolden kFigGoldens[] = {
    {"fig08_speculation", 1621, 1517, 104, 7, 0, 0, 0, 1523, 105, 276226700},
    {"fig08_blocking", 1454, 1365, 89, 7, 0, 0, 0, 1371, 90, 239686150},
    {"fig08_locking", 1372, 1287, 85, 6, 0, 0, 0, 1292, 86, 296520470},
    {"fig09_speculation", 1330, 357, 973, 13, 0, 0, 0, 361, 982, 274275500},
    {"fig09_blocking", 660, 174, 486, 5, 0, 0, 0, 175, 490, 126868800},
    {"fig09_locking", 1053, 272, 781, 12, 3, 0, 3, 276, 789, 284962800},
};

// mvcc postdates the seed harness: these cells pin it from the last commit
// at which it was a scheme class of its own, with the coordinator's busy time
// and its snapshot-read and conflict-wait counters as well.
struct MvccFigGolden {
  FigGolden fig;
  Duration coord_busy_ns;
  uint64_t mvcc_snapshot_reads, mvcc_conflict_waits;
};

constexpr MvccFigGolden kMvccFigGoldens[] = {
    {{"fig08_mvcc", 1784, 1662, 122, 8, 0, 0, 0, 1669, 123, 291897490}, 12152000, 41, 133},
    {{"fig09_mvcc", 683, 177, 506, 6, 0, 0, 0, 178, 511, 136027050}, 50032000, 0, 10},
};

std::string SchemeFor(const std::string& name) {
  if (name.find("speculation") != std::string::npos) return "speculation";
  if (name.find("blocking") != std::string::npos) return "blocking";
  if (name.find("mvcc") != std::string::npos) return "mvcc";
  return "locking";
}

// Runs the fig08 or fig09 cell named `name` under the scheme it names.
Metrics RunTpccFig(const std::string& name) {
  TpccWorkloadConfig fig08;
  fig08.scale.num_warehouses = 4;
  fig08.scale.num_partitions = 2;
  fig08.scale.items = 1000;
  fig08.scale.customers_per_district = 60;
  fig08.scale.initial_orders_per_district = 60;

  TpccWorkloadConfig fig09 = fig08;
  fig09.pct_new_order = 100;
  fig09.pct_payment = fig09.pct_order_status = fig09.pct_delivery = fig09.pct_stock_level = 0;
  fig09.remote_item_prob = 0.2;

  const TpccWorkloadConfig& wl = name.find("fig08") == 0 ? fig08 : fig09;
  auto db =
      Database::Open(TpccDbOptions(wl.scale, SchemeFor(name), RunMode::kSimulated, 10, 12345));
  ClosedLoopOptions loop;
  loop.num_clients = 10;
  loop.next = TpccInvocations(wl, *db);
  loop.warmup = Micros(20000);
  loop.measure = Micros(150000);
  Metrics m = RunClosedLoop(*db, loop);
  db->Close();
  return m;
}

void ExpectFigGolden(const Metrics& m, const FigGolden& g) {
  const std::string name = g.name;
  EXPECT_EQ(m.committed, g.committed) << name;
  EXPECT_EQ(m.sp_committed, g.sp_committed) << name;
  EXPECT_EQ(m.mp_committed, g.mp_committed) << name;
  EXPECT_EQ(m.user_aborts, g.user_aborts) << name;
  EXPECT_EQ(m.local_deadlocks, g.local_deadlocks) << name;
  EXPECT_EQ(m.timeout_aborts, g.timeout_aborts) << name;
  EXPECT_EQ(m.txn_retries, g.txn_retries) << name;
  EXPECT_EQ(m.sp_latency.count(), g.sp_count) << name;
  EXPECT_EQ(m.mp_latency.count(), g.mp_count) << name;
  EXPECT_EQ(m.partition_busy_ns, g.partition_busy_ns) << name;
}

TEST(TpccSessionParity, SimFigureMetricsMatchSeedHarness) {
  for (const FigGolden& g : kFigGoldens) ExpectFigGolden(RunTpccFig(g.name), g);
}

TEST(TpccSessionParity, MvccSimFigureMetricsMatchGoldens) {
  for (const MvccFigGolden& g : kMvccFigGoldens) {
    const std::string name = g.fig.name;
    Metrics m = RunTpccFig(name);
    ExpectFigGolden(m, g.fig);
    EXPECT_EQ(m.coord_busy_ns, g.coord_busy_ns) << name;
    EXPECT_EQ(m.mvcc_snapshot_reads, g.mvcc_snapshot_reads) << name;
    EXPECT_EQ(m.mvcc_conflict_waits, g.mvcc_conflict_waits) << name;
  }
}

// The window's per-procedure outcomes must decompose its totals across the
// five TPC-C procedures (each session records both into the same Metrics;
// NewOrder contributes the invalid-item user aborts).
TEST(TpccProcMetrics, FiveProceduresDecomposeWindowMetrics) {
  TpccWorkloadConfig wl;
  wl.scale = SmallScale();
  auto db = Database::Open(
      TpccDbOptions(wl.scale, "speculation", RunMode::kSimulated, 10, 12345));
  ClosedLoopOptions loop;
  loop.num_clients = 10;
  loop.next = TpccInvocations(wl, *db);
  loop.warmup = Micros(20000);
  loop.measure = Micros(100000);
  Metrics m = RunClosedLoop(*db, loop);
  db->Close();

  const std::vector<Metrics::ProcOutcomes>& procs = m.procs;
  ASSERT_EQ(procs.size(), 5u);
  uint64_t committed = 0, aborts = 0, latencies = 0;
  for (size_t i = 0; i < procs.size(); ++i) {
    committed += procs[i].committed;
    aborts += procs[i].user_aborts;
    latencies += procs[i].latency.count();
    // The full mix exercises every procedure inside the window.
    EXPECT_GT(procs[i].committed, 0u) << db->registry().Get(i).name;
  }
  EXPECT_EQ(committed, m.committed);
  EXPECT_EQ(aborts, m.user_aborts);
  EXPECT_EQ(latencies, m.sp_latency.count() + m.mp_latency.count());
  // Only NewOrder can user-abort (the 1% invalid-item rollback).
  EXPECT_GT(procs[0].user_aborts, 0u);
  EXPECT_EQ(db->proc(tpcc::kTpccNewOrderProc), 0);
  for (size_t i = 1; i < procs.size(); ++i) {
    EXPECT_EQ(procs[i].user_aborts, 0u) << db->registry().Get(i).name;
  }
}

}  // namespace
}  // namespace partdb

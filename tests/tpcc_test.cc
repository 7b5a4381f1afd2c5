// TPC-C engine unit tests: loader invariants, each stored procedure's
// effects, undo rollback, the invalid-item abort path, remote fragments, and
// the consistency checker itself.
#include <memory>
#include <string>

#include "durability/log_format.h"
#include "gtest/gtest.h"
#include "tpcc/tpcc_consistency.h"
#include "tpcc/tpcc_engine.h"
#include "tpcc/tpcc_loader.h"
#include "tpcc/tpcc_procedures.h"

namespace partdb {
namespace tpcc {
namespace {

TpccScale TinyScale(int warehouses = 2, int partitions = 1) {
  TpccScale s;
  s.num_warehouses = warehouses;
  s.num_partitions = partitions;
  s.items = 100;
  s.customers_per_district = 30;
  s.initial_orders_per_district = 30;
  return s;
}

NewOrderArgs MakeOrderArgs(int32_t w, int32_t d, int32_t c, std::vector<int32_t> items) {
  NewOrderArgs a;
  a.w_id = w;
  a.d_id = d;
  a.c_id = c;
  a.entry_d = 7;
  for (int32_t i : items) a.lines.push_back({i, w, 3});
  return a;
}

/// A replicated row's bytes: its fields in declaration order.
std::string RowBytes(const ItemRow& r) {
  std::string out;
  WireWriter w(&out);
  w.Field(r.i_id);
  w.Field(r.im_id);
  w.Field(r.name);
  w.Field(r.price);
  w.Field(r.data);
  return out;
}
std::string RowBytes(const StockInfoRow& r) {
  std::string out;
  WireWriter w(&out);
  w.Field(r.i_id);
  w.Field(r.w_id);
  for (const auto& d : r.dist) w.Field(d);
  w.Field(r.data);
  return out;
}

/// Order-independent hash over every row of a replicated table.
template <typename Table>
uint64_t RowsHash(const Table& table) {
  uint64_t h = 0;
  table.ForEach([&h](const uint64_t& k, const auto& row) {
    h ^= Mix64(Mix64(k) ^ Crc32(RowBytes(row)));
  });
  return h;
}

TEST(TpccLoader, DeterministicAndPartitioned) {
  const TpccScale scale = TinyScale(4, 2);
  TpccEngine e0(scale, 0, 42), e0b(scale, 0, 42), e1(scale, 1, 42);
  EXPECT_EQ(e0.StateHash(), e0b.StateHash());
  EXPECT_NE(e0.StateHash(), e1.StateHash());

  // Partition 0 owns warehouses 1-2, partition 1 owns 3-4.
  EXPECT_NE(e0.db().warehouses.Find(1), nullptr);
  EXPECT_NE(e0.db().warehouses.Find(2), nullptr);
  EXPECT_EQ(e0.db().warehouses.Find(3), nullptr);
  EXPECT_NE(e1.db().warehouses.Find(3), nullptr);

  // Replicated tables identical everywhere.
  EXPECT_EQ(e0.db().items.size(), static_cast<size_t>(scale.items));
  EXPECT_EQ(e1.db().items.size(), static_cast<size_t>(scale.items));
  ASSERT_NE(e0.db().items.Find(5), nullptr);
  ASSERT_NE(e1.db().items.Find(5), nullptr);
  EXPECT_EQ(e0.db().items.Find(5)->price, e1.db().items.Find(5)->price);
  EXPECT_EQ(e0.db().stock_info.size(), static_cast<size_t>(scale.items * 4));

  // Districts initialized with next_o_id past the loaded orders.
  const DistrictRow* d = e0.db().districts.Find(DistrictKey(1, 1));
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->next_o_id, scale.initial_orders_per_district + 1);

  // A third of the loaded orders are undelivered.
  EXPECT_EQ(e0.db().new_orders.size(),
            static_cast<size_t>(2 * 10 * scale.initial_orders_per_district / 3));
}

// The loaded population is pinned: the replicated tables' rows and each
// partition's state, for a standalone engine and for one the factory makes.
// A change to the generator's stream, to the order the loader draws in, or
// to which copy of the replicated tables an engine reads moves them.
TEST(TpccLoader, ReplicatedTablesArePinned) {
  const TpccScale scale = TinyScale(4, 2);
  const EngineFactory factory = MakeTpccEngineFactory(scale, 42);
  const uint64_t kStateHash[2] = {0x81672bdc1a8bef76ull, 0xe24ae532792252fcull};
  for (PartitionId p = 0; p < 2; ++p) {
    const TpccEngine standalone(scale, p, 42);
    const std::unique_ptr<Engine> made = factory(p);
    const TpccEngine& from_factory = static_cast<const TpccEngine&>(*made);
    for (const TpccEngine* e : {&standalone, &from_factory}) {
      EXPECT_EQ(e->db().items.size(), static_cast<size_t>(scale.items));
      EXPECT_EQ(e->db().stock_info.size(), static_cast<size_t>(scale.items * 4));
      EXPECT_EQ(RowsHash(e->db().items), 0xdca0ea67811a8335ull) << "partition " << p;
      EXPECT_EQ(RowsHash(e->db().stock_info), 0x0d4a5c3ddcb54bc5ull) << "partition " << p;
      EXPECT_EQ(e->StateHash(), kStateHash[p]) << "partition " << p;
    }
  }
}

TEST(TpccLoader, FreshDatabaseIsConsistent) {
  const TpccScale scale = TinyScale(2, 2);
  TpccEngine e0(scale, 0, 1), e1(scale, 1, 1);
  auto violations = CheckConsistency({&e0.db(), &e1.db()});
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(TpccConsistency, DetectsTampering) {
  const TpccScale scale = TinyScale(1, 1);
  TpccEngine e(scale, 0, 1);
  e.db().warehouses.Find(1)->ytd += 123.0;
  auto violations = CheckConsistency({&e.db()});
  EXPECT_FALSE(violations.empty());
}

TEST(TpccNewOrder, HappyPath) {
  const TpccScale scale = TinyScale(1, 1);
  TpccEngine e(scale, 0, 1);
  TpccDb& db = e.db();
  const int32_t next = db.districts.Find(DistrictKey(1, 2))->next_o_id;
  const int32_t stock_before = db.stock.Find(StockKey(1, 7))->quantity;

  WorkMeter m;
  NewOrderArgs a = MakeOrderArgs(1, 2, 3, {7, 8, 9});
  ExecResult r = e.Execute(a, 0, nullptr, nullptr, &m);
  ASSERT_FALSE(r.aborted);
  const auto& out = PayloadCast<TpccResult>(*r.result);
  EXPECT_EQ(out.id, next);
  EXPECT_GT(out.amount, 0.0);

  EXPECT_EQ(db.districts.Find(DistrictKey(1, 2))->next_o_id, next + 1);
  const OrderRow* o = db.orders.Find(OrderKey(1, 2, next));
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->c_id, 3);
  EXPECT_EQ(o->ol_cnt, 3);
  EXPECT_TRUE(o->all_local);
  EXPECT_NE(db.new_orders.Find(NewOrderKey(1, 2, next)), nullptr);
  for (int ol = 1; ol <= 3; ++ol) {
    ASSERT_NE(db.order_lines.Find(OrderLineKey(1, 2, next, ol)), nullptr);
  }
  EXPECT_EQ(db.stock.Find(StockKey(1, 7))->quantity,
            stock_before >= 13 ? stock_before - 3 : stock_before + 91 - 3);
  EXPECT_EQ(*db.last_order_of_customer.Find(CustomerKey(1, 2, 3)), next);
  EXPECT_GT(m.reads, 0u);
  EXPECT_GT(m.writes, 0u);
}

TEST(TpccNewOrder, InvalidItemAbortsBeforeAnyWrite) {
  const TpccScale scale = TinyScale(1, 1);
  TpccEngine e(scale, 0, 1);
  const uint64_t before = e.StateHash();
  NewOrderArgs a = MakeOrderArgs(1, 1, 1, {5, scale.items + 1, 6});
  WorkMeter m;
  ExecResult r = e.Execute(a, 0, nullptr, nullptr, &m);  // no undo buffer!
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(e.StateHash(), before);  // reordering made the abort write-free
}

TEST(TpccNewOrder, UndoRestoresState) {
  const TpccScale scale = TinyScale(1, 1);
  TpccEngine e(scale, 0, 1);
  const uint64_t before = e.StateHash();
  NewOrderArgs a = MakeOrderArgs(1, 3, 5, {1, 2, 3, 4});
  UndoBuffer undo;
  WorkMeter m;
  ExecResult r = e.Execute(a, 0, nullptr, &undo, &m);
  ASSERT_FALSE(r.aborted);
  EXPECT_NE(e.StateHash(), before);
  EXPECT_GT(undo.size(), 0u);
  undo.Rollback();
  EXPECT_EQ(e.StateHash(), before);
}

TEST(TpccNewOrder, RemoteFragmentUpdatesOnlyStock) {
  const TpccScale scale = TinyScale(2, 2);
  TpccEngine home(scale, 0, 9), remote(scale, 1, 9);
  // Order at warehouse 1 (partition 0) with one line supplied by warehouse 2
  // (partition 1).
  NewOrderArgs a = MakeOrderArgs(1, 1, 1, {10, 11});
  a.lines[1].supply_w_id = 2;

  const uint64_t remote_before = remote.StateHash();
  const int32_t sq_before = remote.db().stock.Find(StockKey(2, 11))->quantity;

  WorkMeter m;
  ExecResult rh = home.Execute(a, 0, nullptr, nullptr, &m);
  ASSERT_FALSE(rh.aborted);
  const OrderRow* o =
      home.db().orders.Find(OrderKey(1, 1, PayloadCast<TpccResult>(*rh.result).id));
  ASSERT_NE(o, nullptr);
  EXPECT_FALSE(o->all_local);

  ExecResult rr = remote.Execute(a, 0, nullptr, nullptr, &m);
  ASSERT_FALSE(rr.aborted);
  EXPECT_NE(remote.StateHash(), remote_before);
  const StockRow* s = remote.db().stock.Find(StockKey(2, 11));
  EXPECT_NE(s->quantity, sq_before);
  EXPECT_EQ(s->remote_cnt, 1);
  // The remote partition gained no orders or order lines.
  EXPECT_EQ(remote.db().orders.Find(OrderKey(1, 1, 31)), nullptr);
}

TEST(TpccPayment, ByIdUpdatesBalancesAndHistory) {
  const TpccScale scale = TinyScale(1, 1);
  TpccEngine e(scale, 0, 1);
  TpccDb& db = e.db();
  const double w_ytd = db.warehouses.Find(1)->ytd;
  const double d_ytd = db.districts.Find(DistrictKey(1, 4))->ytd;
  const double bal = db.customers.Find(CustomerKey(1, 4, 7))->balance;
  const size_t hist = db.history.size();

  PaymentArgs a;
  a.w_id = 1;
  a.d_id = 4;
  a.c_w_id = 1;
  a.c_d_id = 4;
  a.c_id = 7;
  a.amount = 123.45;
  WorkMeter m;
  ExecResult r = e.Execute(a, 0, nullptr, nullptr, &m);
  ASSERT_FALSE(r.aborted);
  EXPECT_EQ(PayloadCast<TpccResult>(*r.result).id, 7);

  EXPECT_DOUBLE_EQ(db.warehouses.Find(1)->ytd, w_ytd + 123.45);
  EXPECT_DOUBLE_EQ(db.districts.Find(DistrictKey(1, 4))->ytd, d_ytd + 123.45);
  EXPECT_DOUBLE_EQ(db.customers.Find(CustomerKey(1, 4, 7))->balance, bal - 123.45);
  EXPECT_EQ(db.customers.Find(CustomerKey(1, 4, 7))->payment_cnt, 2);
  EXPECT_EQ(db.history.size(), hist + 1);
  const HistoryRow* last = db.history.Find(db.next_history_id - 1);
  ASSERT_NE(last, nullptr);
  EXPECT_DOUBLE_EQ(last->amount, 123.45);
}

TEST(TpccPayment, ByNameSelectsMiddleMatchByFirstName) {
  const TpccScale scale = TinyScale(1, 1);
  TpccEngine e(scale, 0, 1);
  TpccDb& db = e.db();
  // Rewrite customers 1..3 of (1,1) to share a last name with ordered firsts.
  const Str16 shared("ZZCOMMON");
  const char* firsts[3] = {"AAA", "MMM", "ZZZ"};
  for (int32_t c = 1; c <= 3; ++c) {
    CustomerRow* row = db.customers.Find(CustomerKey(1, 1, c));
    ASSERT_NE(row, nullptr);
    ASSERT_TRUE(db.customers_by_name.Erase(
        CustomerNameKey{DistrictKey(1, 1), row->last, row->first, c}));
    row->last = shared;
    row->first = Str16(firsts[c - 1]);
    ASSERT_TRUE(db.customers_by_name.Insert(
        CustomerNameKey{DistrictKey(1, 1), row->last, row->first, c}, CustomerKey(1, 1, c)));
  }
  PaymentArgs a;
  a.w_id = 1;
  a.d_id = 2;
  a.c_w_id = 1;
  a.c_d_id = 1;
  a.c_id = 0;
  a.c_last = shared;
  a.amount = 10.5;
  WorkMeter m;
  ExecResult r = e.Execute(a, 0, nullptr, nullptr, &m);
  // ceil(3/2) = 2nd by first name: "MMM" = customer 2.
  EXPECT_EQ(PayloadCast<TpccResult>(*r.result).id, 2);
}

TEST(TpccPayment, UndoRestoresState) {
  const TpccScale scale = TinyScale(1, 1);
  TpccEngine e(scale, 0, 1);
  const uint64_t before = e.StateHash();
  PaymentArgs a;
  a.w_id = 1;
  a.d_id = 1;
  a.c_w_id = 1;
  a.c_d_id = 9;
  a.c_id = 11;
  a.amount = 55.5;
  UndoBuffer undo;
  WorkMeter m;
  ExecResult r = e.Execute(a, 0, nullptr, &undo, &m);
  ASSERT_FALSE(r.aborted);
  EXPECT_NE(e.StateHash(), before);
  undo.Rollback();
  EXPECT_EQ(e.StateHash(), before);
}

TEST(TpccDelivery, DeliversOldestPerDistrict) {
  const TpccScale scale = TinyScale(1, 1);
  TpccEngine e(scale, 0, 1);
  TpccDb& db = e.db();
  const size_t undelivered = db.new_orders.size();
  ASSERT_GT(undelivered, 0u);

  // Oldest undelivered order in district 1.
  uint64_t key = 0;
  bool* unused = nullptr;
  ASSERT_TRUE(db.new_orders.LowerBound(NewOrderKey(1, 1, 0), &key, &unused));
  const int32_t oldest = static_cast<int32_t>(key & 0xFFFFFFFFu);

  DeliveryArgs a;
  a.w_id = 1;
  a.carrier_id = 5;
  a.date = 99;
  WorkMeter m;
  ExecResult r = e.Execute(a, 0, nullptr, nullptr, &m);
  ASSERT_FALSE(r.aborted);
  EXPECT_EQ(PayloadCast<TpccResult>(*r.result).id, 10);  // one per district
  EXPECT_EQ(db.new_orders.size(), undelivered - 10);

  const OrderRow* o = db.orders.Find(OrderKey(1, 1, oldest));
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->carrier_id, 5);
  const OrderLineRow* ol = db.order_lines.Find(OrderLineKey(1, 1, oldest, 1));
  ASSERT_NE(ol, nullptr);
  EXPECT_EQ(ol->delivery_d, 99);
}

TEST(TpccDelivery, UndoRestoresState) {
  const TpccScale scale = TinyScale(1, 1);
  TpccEngine e(scale, 0, 1);
  const uint64_t before = e.StateHash();
  DeliveryArgs a;
  a.w_id = 1;
  a.carrier_id = 3;
  a.date = 5;
  UndoBuffer undo;
  WorkMeter m;
  ExecResult r = e.Execute(a, 0, nullptr, &undo, &m);
  ASSERT_FALSE(r.aborted);
  undo.Rollback();
  EXPECT_EQ(e.StateHash(), before);
}

TEST(TpccReadOnly, OrderStatusAndStockLevel) {
  const TpccScale scale = TinyScale(1, 1);
  TpccEngine e(scale, 0, 1);
  const uint64_t before = e.StateHash();

  OrderStatusArgs os;
  os.w_id = 1;
  os.d_id = 1;
  os.c_id = 2;
  WorkMeter m;
  ExecResult r1 = e.Execute(os, 0, nullptr, nullptr, &m);
  ASSERT_FALSE(r1.aborted);
  EXPECT_EQ(PayloadCast<TpccResult>(*r1.result).id, 2);

  StockLevelArgs sl;
  sl.w_id = 1;
  sl.d_id = 1;
  sl.threshold = 15;
  ExecResult r2 = e.Execute(sl, 0, nullptr, nullptr, &m);
  ASSERT_FALSE(r2.aborted);
  EXPECT_GE(PayloadCast<TpccResult>(*r2.result).id, 0);

  EXPECT_EQ(e.StateHash(), before);  // both are read-only
}

// The checkpoint image's size and crc are pinned: a restore that reads two
// same-width fields in the other order still round-trips the hash's subset
// of columns, but not these bytes. Images written earlier must still restore.
TEST(TpccCheckpoint, ImageBytesArePinned) {
  const TpccScale scale = TinyScale(1, 1);
  TpccEngine e(scale, 0, 7);
  WorkMeter m;
  ASSERT_FALSE(e.Execute(MakeOrderArgs(1, 2, 3, {7, 8, 9}), 0, nullptr, nullptr, &m).aborted);
  PaymentArgs pay;
  pay.w_id = 1;
  pay.d_id = 4;
  pay.c_w_id = 1;
  pay.c_d_id = 4;
  pay.c_id = 7;
  pay.amount = 123.45;
  pay.date = 9;
  ASSERT_FALSE(e.Execute(pay, 0, nullptr, nullptr, &m).aborted);
  EXPECT_GT(e.db().history.size(), 0u);
  EXPECT_GT(e.db().orders.size(), 0u);
  EXPECT_GT(e.db().new_orders.size(), 0u);
  EXPECT_GT(e.db().order_lines.size(), 0u);

  std::string image;
  WireWriter w(&image);
  e.SerializeState(w);
  EXPECT_EQ(image.size(), 341268u);
  EXPECT_EQ(Crc32(image), 1603173328u);

  TpccEngine fresh(scale, 0, 7);
  WireReader r(image);
  ASSERT_TRUE(fresh.RestoreState(r));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(fresh.StateHash(), e.StateHash());
  std::string again;
  WireWriter w2(&again);
  fresh.SerializeState(w2);
  EXPECT_TRUE(again == image);
}

TEST(TpccLockSet, RolesAndGranularity) {
  const TpccScale scale = TinyScale(2, 2);
  TpccEngine home(scale, 0, 1), remote(scale, 1, 1);

  NewOrderArgs a = MakeOrderArgs(1, 1, 1, {10, 11});
  a.lines[1].supply_w_id = 2;

  std::vector<LockRequest> locks;
  home.LockSet(a, 0, &locks);
  // Home: warehouse S, district X, and only the local stock line.
  ASSERT_EQ(locks.size(), 3u);
  EXPECT_FALSE(locks[0].exclusive);
  EXPECT_TRUE(locks[1].exclusive);
  EXPECT_TRUE(locks[2].exclusive);

  locks.clear();
  remote.LockSet(a, 0, &locks);
  ASSERT_EQ(locks.size(), 1u);  // just the remote stock item
  EXPECT_TRUE(locks[0].exclusive);

  DeliveryArgs d;
  d.w_id = 1;
  locks.clear();
  home.LockSet(d, 0, &locks);
  EXPECT_EQ(locks.size(), 10u);  // X on all districts
}

TEST(TpccWorkloadGen, ParticipantsAndMix) {
  TpccWorkloadConfig cfg;
  cfg.scale = TinyScale(4, 2);
  cfg.remote_item_prob = 0.5;  // force many multi-partition orders
  Rng rng(7);
  int mp = 0, total = 2000;
  for (int i = 0; i < total; ++i) {
    TpccDraw draw = DrawTpccTxn(cfg, i % 8, rng);
    TxnRouting route = RouteTpcc(cfg.scale, *draw.args);
    ASSERT_GE(route.participants.size(), 1u);
    ASSERT_LE(route.participants.size(), 2u);
    if (route.participants.size() > 1) ++mp;
    // The home partition owns the client's warehouse.
    const auto& args = PayloadCast<TpccArgs>(*draw.args);
    if (args.kind == TpccArgs::Kind::kNewOrder) {
      const auto& no = static_cast<const NewOrderArgs&>(args);
      EXPECT_EQ(route.participants[0], cfg.scale.PartitionOf(no.w_id));
      EXPECT_GE(no.lines.size(), 5u);
      EXPECT_LE(no.lines.size(), 15u);
    }
  }
  const double measured = static_cast<double>(mp) / total;
  const double predicted = cfg.MultiPartitionProbability();
  EXPECT_NEAR(measured, predicted, 0.05);
}

TEST(TpccWorkloadGen, DefaultRemoteProbabilityMatchesPaper) {
  // Paper §5.6: with TPC-C defaults (1% remote items), ~9.5% of NewOrder
  // transactions are multi-partition on 2 partitions when every remote
  // warehouse is on the other partition.
  TpccWorkloadConfig cfg;
  cfg.scale = TinyScale(2, 2);
  cfg.pct_new_order = 100;
  cfg.pct_payment = cfg.pct_order_status = cfg.pct_delivery = cfg.pct_stock_level = 0;
  EXPECT_NEAR(cfg.MultiPartitionProbability(), 0.095, 0.01);
}

}  // namespace
}  // namespace tpcc
}  // namespace partdb

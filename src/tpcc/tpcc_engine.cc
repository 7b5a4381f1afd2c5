#include "tpcc/tpcc_engine.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "tpcc/tpcc_loader.h"

namespace partdb {
namespace tpcc {

// --- wire layouts ------------------------------------------------------------
// One field list per layout; SerializeTo and the decoders both run it.

namespace {

template <typename Io, FieldsOf<NewOrderArgs> A>
void Fields(Io& io, A& a) {
  io.Field(a.w_id);
  io.Field(a.d_id);
  io.Field(a.c_id);
  io.Seq32(a.lines, 12);  // i_id, supply_w_id, quantity
  io.Field(a.entry_d);
  io.Reserved(8);
  for (auto& l : a.lines) {
    io.Field(l.i_id);
    io.Field(l.supply_w_id);
    io.Field(l.quantity);
  }
}

template <typename Io, FieldsOf<PaymentArgs> A>
void Fields(Io& io, A& a) {
  io.Field(a.w_id);
  io.Field(a.d_id);
  io.Field(a.c_w_id);
  io.Field(a.c_d_id);
  io.Field(a.c_id);
  io.Field(a.amount);
  io.Field(a.date);
  io.Field(a.c_last);
  io.Reserved(3);
}

template <typename Io, FieldsOf<OrderStatusArgs> A>
void Fields(Io& io, A& a) {
  io.Field(a.w_id);
  io.Field(a.d_id);
  io.Field(a.c_id);
  io.Field(a.c_last);
  io.Reserved(3 + 8);  // padding, then reserved
}

template <typename Io, FieldsOf<DeliveryArgs> A>
void Fields(Io& io, A& a) {
  io.Field(a.w_id);
  io.Field(a.carrier_id);
  io.Field(a.date);
  io.Reserved(16);  // future delivery-queue fields
}

template <typename Io, FieldsOf<StockLevelArgs> A>
void Fields(Io& io, A& a) {
  io.Field(a.w_id);
  io.Field(a.d_id);
  io.Field(a.threshold);
  io.Reserved(16);
}

template <typename Io, FieldsOf<TpccResult> R>
void Fields(Io& io, R& res) {
  io.Field(res.id);
  io.Reserved(4);
  io.Field(res.amount);
}

template <typename Args>
std::shared_ptr<Payload> MakeArgs() {
  return std::make_shared<Args>();
}

template <typename Args>
bool DecodeArgsInto(WireReader& r, Payload* into) {
  Fields(r, static_cast<Args&>(*into));
  return r.ok();
}

}  // namespace

void NewOrderArgs::SerializeTo(WireWriter& w) const { Fields(w, *this); }
void PaymentArgs::SerializeTo(WireWriter& w) const { Fields(w, *this); }
void OrderStatusArgs::SerializeTo(WireWriter& w) const { Fields(w, *this); }
void DeliveryArgs::SerializeTo(WireWriter& w) const { Fields(w, *this); }
void StockLevelArgs::SerializeTo(WireWriter& w) const { Fields(w, *this); }
void TpccResult::SerializeTo(WireWriter& w) const { Fields(w, *this); }

PayloadPtr DecodeTpccResult(WireReader& r) {
  auto res = std::make_shared<TpccResult>();
  Fields(r, *res);
  return r.ok() ? res : nullptr;
}

// --- the procedures ----------------------------------------------------------
//
// Locking protocol: row locks on warehouse + fine-grained stock items;
// district locks additionally cover the district's customers, orders,
// order lines, and new-orders (coarse umbrella, which also gives phantom
// protection for the district-scoped scans). Replicated read-only tables
// (items, stock_info) are not locked: nothing in the mix writes them.
// StockLevel reads stock quantities without locks, which TPC-C explicitly
// allows at relaxed isolation (spec 2.8.2.3).
//
// Routing: the home warehouse's partition first, remote stock-supply /
// customer partitions after, in first-seen order.

namespace {

template <typename Args>
const Args& As(const TpccArgs& args) {
  return static_cast<const Args&>(args);
}

LockRequest DistrictLock(int32_t w_id, int32_t d_id, bool exclusive) {
  return {LockId(LockSpace::kDistrict, DistrictKey(w_id, d_id)), exclusive};
}

void NewOrderLocks(const TpccDb& db, const TpccArgs& args, std::vector<LockRequest>* out) {
  const auto& a = As<NewOrderArgs>(args);
  if (db.scale().PartitionOf(a.w_id) == db.pid()) {
    out->push_back({LockId(LockSpace::kWarehouse, static_cast<uint64_t>(a.w_id)), false});
    out->push_back(DistrictLock(a.w_id, a.d_id, true));
  }
  for (const auto& line : a.lines) {
    if (db.scale().PartitionOf(line.supply_w_id) != db.pid()) continue;
    out->push_back({LockId(LockSpace::kStock, StockKey(line.supply_w_id, line.i_id)), true});
  }
}

void NewOrderRoute(const TpccScale& scale, const TpccArgs& args, PartitionList* participants) {
  const auto& a = As<NewOrderArgs>(args);
  participants->push_back(scale.PartitionOf(a.w_id));
  for (const auto& line : a.lines) {
    const PartitionId p = scale.PartitionOf(line.supply_w_id);
    if (std::find(participants->begin(), participants->end(), p) == participants->end()) {
      participants->push_back(p);
    }
  }
}

void PaymentLocks(const TpccDb& db, const TpccArgs& args, std::vector<LockRequest>* out) {
  const auto& a = As<PaymentArgs>(args);
  if (db.scale().PartitionOf(a.w_id) == db.pid()) {
    out->push_back({LockId(LockSpace::kWarehouse, static_cast<uint64_t>(a.w_id)), true});
    out->push_back(DistrictLock(a.w_id, a.d_id, true));
  }
  if (db.scale().PartitionOf(a.c_w_id) == db.pid()) {
    out->push_back(DistrictLock(a.c_w_id, a.c_d_id, true));
  }
}

void PaymentRoute(const TpccScale& scale, const TpccArgs& args, PartitionList* participants) {
  const auto& a = As<PaymentArgs>(args);
  participants->push_back(scale.PartitionOf(a.w_id));
  const PartitionId cp = scale.PartitionOf(a.c_w_id);
  if (cp != (*participants)[0]) participants->push_back(cp);
}

void DeliveryLocks(const TpccDb& /*db*/, const TpccArgs& args, std::vector<LockRequest>* out) {
  const auto& a = As<DeliveryArgs>(args);
  for (int32_t d = 1; d <= TpccScale::kDistrictsPerWarehouse; ++d) {
    out->push_back(DistrictLock(a.w_id, d, true));
  }
}

/// OrderStatus and StockLevel: a shared lock on the one district they read.
template <typename Args>
void DistrictReadLock(const TpccDb& /*db*/, const TpccArgs& args,
                      std::vector<LockRequest>* out) {
  const auto& a = As<Args>(args);
  out->push_back(DistrictLock(a.w_id, a.d_id, false));
}

/// OrderStatus, Delivery and StockLevel run at their warehouse alone.
template <typename Args>
void HomeRoute(const TpccScale& scale, const TpccArgs& args, PartitionList* participants) {
  participants->push_back(scale.PartitionOf(As<Args>(args).w_id));
}

// Exec* with the row's signature: a read-only procedure takes no undo buffer.
template <typename Args, ExecResult (*kExec)(TpccDb&, const Args&, UndoBuffer*, WorkMeter*)>
ExecResult Execute(TpccDb& db, const TpccArgs& args, UndoBuffer* undo, WorkMeter* m) {
  return kExec(db, As<Args>(args), undo, m);
}
template <typename Args, ExecResult (*kExec)(TpccDb&, const Args&, WorkMeter*)>
ExecResult Execute(TpccDb& db, const TpccArgs& args, UndoBuffer* /*undo*/, WorkMeter* m) {
  return kExec(db, As<Args>(args), m);
}

constexpr TpccProcedure kTable[] = {
    {TpccArgs::Kind::kNewOrder, kTpccNewOrderProc, Execute<NewOrderArgs, ExecNewOrder>,
     NewOrderLocks, NewOrderRoute, MakeArgs<NewOrderArgs>, DecodeArgsInto<NewOrderArgs>},
    {TpccArgs::Kind::kPayment, kTpccPaymentProc, Execute<PaymentArgs, ExecPayment>, PaymentLocks,
     PaymentRoute, MakeArgs<PaymentArgs>, DecodeArgsInto<PaymentArgs>},
    {TpccArgs::Kind::kOrderStatus, kTpccOrderStatusProc,
     Execute<OrderStatusArgs, ExecOrderStatus>, DistrictReadLock<OrderStatusArgs>,
     HomeRoute<OrderStatusArgs>, MakeArgs<OrderStatusArgs>, DecodeArgsInto<OrderStatusArgs>},
    {TpccArgs::Kind::kDelivery, kTpccDeliveryProc, Execute<DeliveryArgs, ExecDelivery>,
     DeliveryLocks, HomeRoute<DeliveryArgs>, MakeArgs<DeliveryArgs>, DecodeArgsInto<DeliveryArgs>},
    {TpccArgs::Kind::kStockLevel, kTpccStockLevelProc, Execute<StockLevelArgs, ExecStockLevel>,
     DistrictReadLock<StockLevelArgs>, HomeRoute<StockLevelArgs>, MakeArgs<StockLevelArgs>,
     DecodeArgsInto<StockLevelArgs>},
};

constexpr bool IndexedByKind() {
  for (size_t i = 0; i < std::size(kTable); ++i) {
    if (static_cast<size_t>(kTable[i].kind) != i) return false;
  }
  return true;
}
static_assert(IndexedByKind(), "kTpccProcedures row i must hold Kind i");

}  // namespace

const std::span<const TpccProcedure> kTpccProcedures = kTable;

// --- the engine --------------------------------------------------------------

TpccEngine::TpccEngine(TpccScale scale, PartitionId pid, uint64_t seed,
                       std::shared_ptr<const ReplicatedTables> replicated)
    : db_(scale, pid, std::move(replicated)) {
  LoadPartition(&db_, seed);
}

TpccEngine::TpccEngine(TpccScale scale, PartitionId pid, uint64_t seed)
    : TpccEngine(scale, pid, seed, LoadReplicated(scale, seed)) {}

ExecResult TpccEngine::Execute(const Payload& payload, int round, const Payload* /*round_input*/,
                               UndoBuffer* undo, WorkMeter* meter) {
  PARTDB_CHECK(round == 0);  // all TPC-C transactions are single-round
  const auto& args = PayloadCast<TpccArgs>(payload);
  return TpccProcedureOf(args.kind).execute(db_, args, undo, meter);
}

void TpccEngine::LockSet(const Payload& payload, int /*round*/,
                         std::vector<LockRequest>* out) const {
  const auto& args = PayloadCast<TpccArgs>(payload);
  TpccProcedureOf(args.kind).lock_set(db_, args, out);
}

EngineFactory MakeTpccEngineFactory(const TpccScale& scale, uint64_t seed) {
  std::shared_ptr<const ReplicatedTables> replicated = LoadReplicated(scale, seed);
  return [scale, seed, replicated](PartitionId pid) -> std::unique_ptr<Engine> {
    return std::make_unique<TpccEngine>(scale, pid, seed, replicated);
  };
}

}  // namespace tpcc
}  // namespace partdb

#include "tpcc/tpcc_engine.h"

#include "common/logging.h"
#include "tpcc/tpcc_loader.h"

namespace partdb {
namespace tpcc {

TpccEngine::TpccEngine(TpccScale scale, PartitionId pid, uint64_t seed) : db_(scale, pid) {
  LoadPartition(&db_, seed);
}

ExecResult TpccEngine::Execute(const Payload& payload, int round, const Payload* /*round_input*/,
                               UndoBuffer* undo, WorkMeter* meter) {
  PARTDB_CHECK(round == 0);  // all TPC-C transactions are single-round
  const auto& args = PayloadCast<TpccArgs>(payload);
  switch (args.kind) {
    case TpccArgs::Kind::kNewOrder:
      return ExecNewOrder(db_, static_cast<const NewOrderArgs&>(args), undo, meter);
    case TpccArgs::Kind::kPayment:
      return ExecPayment(db_, static_cast<const PaymentArgs&>(args), undo, meter);
    case TpccArgs::Kind::kOrderStatus:
      return ExecOrderStatus(db_, static_cast<const OrderStatusArgs&>(args), meter);
    case TpccArgs::Kind::kDelivery:
      return ExecDelivery(db_, static_cast<const DeliveryArgs&>(args), undo, meter);
    case TpccArgs::Kind::kStockLevel:
      return ExecStockLevel(db_, static_cast<const StockLevelArgs&>(args), meter);
  }
  PARTDB_CHECK(false);
  return ExecResult{};
}

void TpccEngine::LockSet(const Payload& payload, int /*round*/,
                         std::vector<LockRequest>* out) const {
  const auto& args = PayloadCast<TpccArgs>(payload);
  const TpccScale& scale = db_.scale();
  const PartitionId pid = db_.pid();

  // Locking protocol: row locks on warehouse + fine-grained stock items;
  // district locks additionally cover the district's customers, orders,
  // order lines, and new-orders (coarse umbrella, which also gives phantom
  // protection for the district-scoped scans). Replicated read-only tables
  // (items, stock_info) are not locked: nothing in the mix writes them.
  // StockLevel reads stock quantities without locks, which TPC-C explicitly
  // allows at relaxed isolation (spec 2.8.2.3).
  switch (args.kind) {
    case TpccArgs::Kind::kNewOrder: {
      const auto& a = static_cast<const NewOrderArgs&>(args);
      if (scale.PartitionOf(a.w_id) == pid) {
        out->push_back({LockId(LockSpace::kWarehouse, static_cast<uint64_t>(a.w_id)), false});
        out->push_back({LockId(LockSpace::kDistrict, DistrictKey(a.w_id, a.d_id)), true});
      }
      for (const auto& line : a.lines) {
        if (scale.PartitionOf(line.supply_w_id) != pid) continue;
        out->push_back({LockId(LockSpace::kStock, StockKey(line.supply_w_id, line.i_id)), true});
      }
      break;
    }
    case TpccArgs::Kind::kPayment: {
      const auto& a = static_cast<const PaymentArgs&>(args);
      if (scale.PartitionOf(a.w_id) == pid) {
        out->push_back({LockId(LockSpace::kWarehouse, static_cast<uint64_t>(a.w_id)), true});
        out->push_back({LockId(LockSpace::kDistrict, DistrictKey(a.w_id, a.d_id)), true});
      }
      if (scale.PartitionOf(a.c_w_id) == pid) {
        out->push_back({LockId(LockSpace::kDistrict, DistrictKey(a.c_w_id, a.c_d_id)), true});
      }
      break;
    }
    case TpccArgs::Kind::kOrderStatus: {
      const auto& a = static_cast<const OrderStatusArgs&>(args);
      out->push_back({LockId(LockSpace::kDistrict, DistrictKey(a.w_id, a.d_id)), false});
      break;
    }
    case TpccArgs::Kind::kDelivery: {
      const auto& a = static_cast<const DeliveryArgs&>(args);
      for (int32_t d = 1; d <= TpccScale::kDistrictsPerWarehouse; ++d) {
        out->push_back({LockId(LockSpace::kDistrict, DistrictKey(a.w_id, d)), true});
      }
      break;
    }
    case TpccArgs::Kind::kStockLevel: {
      const auto& a = static_cast<const StockLevelArgs&>(args);
      out->push_back({LockId(LockSpace::kDistrict, DistrictKey(a.w_id, a.d_id)), false});
      break;
    }
  }
}

// --- wire codecs -------------------------------------------------------------

void NewOrderArgs::SerializeTo(WireWriter& w) const {
  w.I32(w_id);
  w.I32(d_id);
  w.I32(c_id);
  w.U32(static_cast<uint32_t>(lines.size()));
  w.I64(entry_d);
  w.U64(0);  // reserved
  for (const Line& l : lines) {
    w.I32(l.i_id);
    w.I32(l.supply_w_id);
    w.I32(l.quantity);
  }
}

bool DecodeNewOrderArgsInto(WireReader& r, NewOrderArgs* a) {
  a->w_id = r.I32();
  a->d_id = r.I32();
  a->c_id = r.I32();
  const uint32_t num_lines = r.U32();
  a->entry_d = r.I64();
  r.Skip(8);  // reserved
  if (num_lines > r.remaining() / 12) {
    r.MarkCorrupt();
    return false;
  }
  a->lines.resize(num_lines);
  for (NewOrderArgs::Line& l : a->lines) {
    l.i_id = r.I32();
    l.supply_w_id = r.I32();
    l.quantity = r.I32();
  }
  return r.ok();
}

void PaymentArgs::SerializeTo(WireWriter& w) const {
  w.I32(w_id);
  w.I32(d_id);
  w.I32(c_w_id);
  w.I32(c_d_id);
  w.I32(c_id);
  w.F64(amount);
  w.I64(date);
  w.Str(c_last);
  w.Pad(3);
}

bool DecodePaymentArgsInto(WireReader& r, PaymentArgs* a) {
  a->w_id = r.I32();
  a->d_id = r.I32();
  a->c_w_id = r.I32();
  a->c_d_id = r.I32();
  a->c_id = r.I32();
  a->amount = r.F64();
  a->date = r.I64();
  a->c_last = r.Str<16>();
  r.Skip(3);
  return r.ok();
}

void OrderStatusArgs::SerializeTo(WireWriter& w) const {
  w.I32(w_id);
  w.I32(d_id);
  w.I32(c_id);
  w.Str(c_last);
  w.Pad(3);
  w.U64(0);  // reserved
}

bool DecodeOrderStatusArgsInto(WireReader& r, OrderStatusArgs* a) {
  a->w_id = r.I32();
  a->d_id = r.I32();
  a->c_id = r.I32();
  a->c_last = r.Str<16>();
  r.Skip(3);
  r.Skip(8);  // reserved
  return r.ok();
}

void DeliveryArgs::SerializeTo(WireWriter& w) const {
  w.I32(w_id);
  w.I32(carrier_id);
  w.I64(date);
  w.U64(0);  // reserved (future delivery-queue fields)
  w.U64(0);
}

bool DecodeDeliveryArgsInto(WireReader& r, DeliveryArgs* a) {
  a->w_id = r.I32();
  a->carrier_id = r.I32();
  a->date = r.I64();
  r.Skip(16);  // reserved
  return r.ok();
}

void StockLevelArgs::SerializeTo(WireWriter& w) const {
  w.I32(w_id);
  w.I32(d_id);
  w.I32(threshold);
  w.U64(0);  // reserved
  w.U64(0);
}

bool DecodeStockLevelArgsInto(WireReader& r, StockLevelArgs* a) {
  a->w_id = r.I32();
  a->d_id = r.I32();
  a->threshold = r.I32();
  r.Skip(16);  // reserved
  return r.ok();
}

void TpccResult::SerializeTo(WireWriter& w) const {
  w.I32(id);
  w.U32(0);  // reserved
  w.F64(amount);
}

PayloadPtr DecodeTpccResult(WireReader& r) {
  auto res = std::make_shared<TpccResult>();
  res->id = r.I32();
  r.Skip(4);
  res->amount = r.F64();
  return r.ok() ? res : nullptr;
}

EngineFactory MakeTpccEngineFactory(const TpccScale& scale, uint64_t seed) {
  return [scale, seed](PartitionId pid) -> std::unique_ptr<Engine> {
    return std::make_unique<TpccEngine>(scale, pid, seed);
  };
}

}  // namespace tpcc
}  // namespace partdb

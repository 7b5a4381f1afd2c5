// TPC-C stored procedures as an Engine (paper §5.5): the five transactions,
// partitioned by warehouse. Distributed NewOrder (remote stock) and Payment
// (remote customer) are simple single-round multi-partition transactions, as
// in the paper. NewOrder is reordered to validate items before any write so
// user aborts never need undo (paper modification #1).
#ifndef PARTDB_TPCC_TPCC_ENGINE_H_
#define PARTDB_TPCC_TPCC_ENGINE_H_

#include <memory>
#include <vector>

#include "engine/engine.h"
#include "msg/wire.h"
#include "tpcc/tpcc_db.h"

namespace partdb {
namespace tpcc {

// The TpccArgs wire layouts (README "Wire protocol") keep the byte counts
// the sim cost model has always charged: 32 + 12/line (NewOrder), 56
// (Payment), 40 (OrderStatus), 32 (Delivery), 28 (StockLevel), 16 (result).
// Reserved fields are encoded as zero and ignored on decode (versioning
// room); the procedure kind never crosses the wire — it is implied by the
// procedure id in the request frame, and each kind registers its own codec.
struct TpccArgs : public Payload {
  enum class Kind : uint8_t { kNewOrder, kPayment, kOrderStatus, kDelivery, kStockLevel };
  Kind kind;
  explicit TpccArgs(Kind k) : kind(k) {}
};

struct NewOrderArgs : public TpccArgs {
  NewOrderArgs() : TpccArgs(Kind::kNewOrder) {}
  int32_t w_id = 0;
  int32_t d_id = 0;
  int32_t c_id = 0;
  int64_t entry_d = 0;
  struct Line {
    int32_t i_id = 0;
    int32_t supply_w_id = 0;
    int32_t quantity = 0;
  };
  std::vector<Line> lines;

  void SerializeTo(WireWriter& w) const override;
};

struct PaymentArgs : public TpccArgs {
  PaymentArgs() : TpccArgs(Kind::kPayment) {}
  int32_t w_id = 0;
  int32_t d_id = 0;
  int32_t c_w_id = 0;
  int32_t c_d_id = 0;
  int32_t c_id = 0;  // 0: select by last name
  Str16 c_last;
  double amount = 0;
  int64_t date = 0;

  void SerializeTo(WireWriter& w) const override;
};

struct OrderStatusArgs : public TpccArgs {
  OrderStatusArgs() : TpccArgs(Kind::kOrderStatus) {}
  int32_t w_id = 0;
  int32_t d_id = 0;
  int32_t c_id = 0;  // 0: select by last name
  Str16 c_last;

  void SerializeTo(WireWriter& w) const override;
};

struct DeliveryArgs : public TpccArgs {
  DeliveryArgs() : TpccArgs(Kind::kDelivery) {}
  int32_t w_id = 0;
  int32_t carrier_id = 0;
  int64_t date = 0;

  void SerializeTo(WireWriter& w) const override;
};

struct StockLevelArgs : public TpccArgs {
  StockLevelArgs() : TpccArgs(Kind::kStockLevel) {}
  int32_t w_id = 0;
  int32_t d_id = 0;
  int32_t threshold = 0;

  void SerializeTo(WireWriter& w) const override;
};

/// Small result summary (order id / resolved customer / counts).
struct TpccResult : public Payload {
  int32_t id = 0;
  double amount = 0;

  void SerializeTo(WireWriter& w) const override;
};

// Per-kind argument decoders (the procedures' args codecs): each fills a
// fresh instance and returns false (marking the reader corrupt) on a
// malformed span.
bool DecodeNewOrderArgsInto(WireReader& r, NewOrderArgs* into);
bool DecodePaymentArgsInto(WireReader& r, PaymentArgs* into);
bool DecodeOrderStatusArgsInto(WireReader& r, OrderStatusArgs* into);
bool DecodeDeliveryArgsInto(WireReader& r, DeliveryArgs* into);
bool DecodeStockLevelArgsInto(WireReader& r, StockLevelArgs* into);

/// The shared result decoder of the five procedures.
PayloadPtr DecodeTpccResult(WireReader& r);

class TpccEngine : public Engine {
 public:
  TpccEngine(TpccScale scale, PartitionId pid, uint64_t seed);

  TpccDb& db() { return db_; }
  const TpccDb& db() const { return db_; }

  ExecResult Execute(const Payload& args, int round, const Payload* round_input,
                     UndoBuffer* undo, WorkMeter* meter) override;
  void LockSet(const Payload& args, int round, std::vector<LockRequest>* out) const override;
  uint64_t StateHash() const override { return db_.StateHash(); }

  bool SupportsCheckpoint() const override { return true; }
  void SerializeState(WireWriter& w) const override { db_.SerializeTo(w); }
  bool RestoreState(WireReader& r) override { return db_.RestoreFrom(r); }

 private:
  TpccDb db_;
};

/// Engine factory for database construction: every partition loads its own
/// warehouses plus the replicated tables, deterministically from `seed`.
EngineFactory MakeTpccEngineFactory(const TpccScale& scale, uint64_t seed);

// The individual procedures (exposed for direct unit testing).
ExecResult ExecNewOrder(TpccDb& db, const NewOrderArgs& a, UndoBuffer* undo, WorkMeter* m);
ExecResult ExecPayment(TpccDb& db, const PaymentArgs& a, UndoBuffer* undo, WorkMeter* m);
ExecResult ExecOrderStatus(TpccDb& db, const OrderStatusArgs& a, WorkMeter* m);
ExecResult ExecDelivery(TpccDb& db, const DeliveryArgs& a, UndoBuffer* undo, WorkMeter* m);
ExecResult ExecStockLevel(TpccDb& db, const StockLevelArgs& a, WorkMeter* m);

}  // namespace tpcc
}  // namespace partdb

#endif  // PARTDB_TPCC_TPCC_ENGINE_H_

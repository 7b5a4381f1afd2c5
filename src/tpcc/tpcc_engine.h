// TPC-C stored procedures as an Engine (paper §5.5): the five transactions,
// partitioned by warehouse. Distributed NewOrder (remote stock) and Payment
// (remote customer) are simple single-round multi-partition transactions, as
// in the paper. NewOrder is reordered to validate items before any write so
// user aborts never need undo (paper modification #1).
//
// Each procedure is one row of kTpccProcedures, indexed by TpccArgs::Kind:
// its name, executor, lock set, router and args codec. The engine, the
// router and the procedure registry all read that row. Each args layout,
// and the result's, is one field list (msg/wire.h) that both encodes and
// decodes.
#ifndef PARTDB_TPCC_TPCC_ENGINE_H_
#define PARTDB_TPCC_TPCC_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "engine/engine.h"
#include "msg/wire.h"
#include "tpcc/tpcc_db.h"

namespace partdb {
namespace tpcc {

// Names the TPC-C procedures register under.
inline constexpr const char* kTpccNewOrderProc = "new_order";
inline constexpr const char* kTpccPaymentProc = "payment";
inline constexpr const char* kTpccOrderStatusProc = "order_status";
inline constexpr const char* kTpccDeliveryProc = "delivery";
inline constexpr const char* kTpccStockLevelProc = "stock_level";

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

/// The shared result decoder of the five procedures.
PayloadPtr DecodeTpccResult(WireReader& r);

/// One TPC-C procedure: a row of kTpccProcedures. Adding a procedure is a
/// Kind, an args type with its field list, and one row.
struct TpccProcedure {
  TpccArgs::Kind kind;
  const char* name;  // what it registers under
  ExecResult (*execute)(TpccDb& db, const TpccArgs& args, UndoBuffer* undo, WorkMeter* m);
  /// Appends the locks it takes at `db`'s partition.
  void (*lock_set)(const TpccDb& db, const TpccArgs& args, std::vector<LockRequest>* out);
  /// Appends its participants: the home warehouse's partition first, remote
  /// stock-supply / customer partitions after, in first-seen order.
  void (*route)(const TpccScale& scale, const TpccArgs& args, PartitionList* participants);
  // Args codec: a fresh instance, and the decoder that fills it.
  std::shared_ptr<Payload> (*make_args)();
  bool (*decode_args_into)(WireReader& r, Payload* into);
};

/// Every TPC-C procedure; row i holds Kind i.
extern const std::span<const TpccProcedure> kTpccProcedures;

inline const TpccProcedure& TpccProcedureOf(TpccArgs::Kind kind) {
  return kTpccProcedures[static_cast<size_t>(kind)];
}

class TpccEngine : public Engine {
 public:
  /// Loads partition `pid`'s warehouses from `seed` and reads `replicated`,
  /// which must have been loaded from the same scale and seed.
  TpccEngine(TpccScale scale, PartitionId pid, uint64_t seed,
             std::shared_ptr<const ReplicatedTables> replicated);
  /// Loads its own copy of the replicated tables (tests, microbenchmarks).
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

/// Engine factory for database construction. The replicated tables are
/// loaded once, when the factory is made, and every engine it makes shares
/// them (primaries, backups, replay engines); each engine loads only its own
/// partition's warehouses. Both loads are deterministic from `seed`.
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

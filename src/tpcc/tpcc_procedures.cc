#include "tpcc/tpcc_procedures.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "tpcc/tpcc_loader.h"

namespace partdb {
namespace tpcc {

namespace {
// NURand C constants (fixed for the run; loader uses the same C for C_LAST).
constexpr int32_t kCLast = 123;
constexpr int32_t kCId = 259;
constexpr int32_t kOlIid = 1177;

int32_t RandomOtherWarehouse(Rng& rng, int32_t w, int num_warehouses) {
  if (num_warehouses == 1) return w;
  int32_t other = static_cast<int32_t>(rng.UniformRange(1, num_warehouses - 1));
  if (other >= w) ++other;
  return other;
}

PayloadPtr DrawNewOrder(const TpccWorkloadConfig& config, int32_t w, Rng& rng) {
  const TpccScale& scale = config.scale;
  auto args = std::make_shared<NewOrderArgs>();
  args->w_id = w;
  args->d_id = static_cast<int32_t>(rng.UniformRange(1, TpccScale::kDistrictsPerWarehouse));
  args->c_id = NURand(rng, 1023, 1, scale.customers_per_district, kCId);
  args->entry_d = 1;

  const int ol_cnt = static_cast<int>(rng.UniformRange(5, 15));
  const bool rollback = rng.Bernoulli(0.01);  // 1% invalid item (user abort)
  for (int i = 0; i < ol_cnt; ++i) {
    NewOrderArgs::Line line;
    line.i_id = NURand(rng, 8191, 1, scale.items, kOlIid);
    if (rollback && i == ol_cnt - 1) line.i_id = scale.items + 1;  // unused id
    line.supply_w_id = rng.Bernoulli(config.remote_item_prob)
                           ? RandomOtherWarehouse(rng, w, scale.num_warehouses)
                           : w;
    line.quantity = static_cast<int32_t>(rng.UniformRange(1, 10));
    args->lines.push_back(line);
  }
  return args;
}

PayloadPtr DrawPayment(const TpccWorkloadConfig& config, int32_t w, Rng& rng) {
  const TpccScale& scale = config.scale;
  auto args = std::make_shared<PaymentArgs>();
  args->w_id = w;
  args->d_id = static_cast<int32_t>(rng.UniformRange(1, TpccScale::kDistrictsPerWarehouse));
  if (rng.Bernoulli(config.remote_payment_prob)) {
    args->c_w_id = RandomOtherWarehouse(rng, w, scale.num_warehouses);
  } else {
    args->c_w_id = w;
  }
  args->c_d_id = static_cast<int32_t>(rng.UniformRange(1, TpccScale::kDistrictsPerWarehouse));
  if (rng.Bernoulli(config.by_name_prob)) {
    args->c_id = 0;
    args->c_last =
        LastName(NURand(rng, 255, 0, std::min(999, scale.customers_per_district - 1), kCLast));
  } else {
    args->c_id = NURand(rng, 1023, 1, scale.customers_per_district, kCId);
  }
  args->amount = static_cast<double>(rng.UniformRange(100, 500000)) / 100.0;
  args->date = 1;
  return args;
}

PayloadPtr DrawOrderStatus(const TpccWorkloadConfig& config, int32_t w, Rng& rng) {
  const TpccScale& scale = config.scale;
  auto args = std::make_shared<OrderStatusArgs>();
  args->w_id = w;
  args->d_id = static_cast<int32_t>(rng.UniformRange(1, TpccScale::kDistrictsPerWarehouse));
  if (rng.Bernoulli(config.by_name_prob)) {
    args->c_id = 0;
    args->c_last =
        LastName(NURand(rng, 255, 0, std::min(999, scale.customers_per_district - 1), kCLast));
  } else {
    args->c_id = NURand(rng, 1023, 1, scale.customers_per_district, kCId);
  }
  return args;
}

PayloadPtr DrawDelivery(int32_t w, Rng& rng) {
  auto args = std::make_shared<DeliveryArgs>();
  args->w_id = w;
  args->carrier_id = static_cast<int32_t>(rng.UniformRange(1, 10));
  args->date = 2;
  return args;
}

PayloadPtr DrawStockLevel(int32_t w, Rng& rng) {
  auto args = std::make_shared<StockLevelArgs>();
  args->w_id = w;
  args->d_id = static_cast<int32_t>(rng.UniformRange(1, TpccScale::kDistrictsPerWarehouse));
  args->threshold = static_cast<int32_t>(rng.UniformRange(10, 20));
  return args;
}

}  // namespace

const char* TpccProcName(TpccArgs::Kind kind) { return TpccProcedureOf(kind).name; }

TxnRouting RouteTpcc(const TpccScale& scale, const Payload& payload) {
  const auto& args = PayloadCast<TpccArgs>(payload);
  TxnRouting r;
  TpccProcedureOf(args.kind).route(scale, args, &r.participants);
  return r;
}

std::vector<ProcedureDescriptor> TpccProcedures(const TpccScale& scale) {
  std::vector<ProcedureDescriptor> procs;
  for (const TpccProcedure& p : kTpccProcedures) {
    ProcedureDescriptor d;
    d.name = p.name;
    d.route = [scale, kind = p.kind](const Payload& args) {
      PARTDB_CHECK(PayloadCast<TpccArgs>(args).kind == kind);
      return RouteTpcc(scale, args);
    };
    // All five transactions are single-round; no coordinator continuation.
    d.make_args = p.make_args;
    d.decode_args_into = p.decode_args_into;
    d.decode_result = DecodeTpccResult;
    procs.push_back(std::move(d));
  }
  return procs;
}

TpccDraw DrawTpccTxn(const TpccWorkloadConfig& config, int client_index, Rng& rng) {
  // Paper modification #3: fixed client count; each client has an assigned
  // warehouse but picks a random district per request.
  const int32_t w = (client_index % config.scale.num_warehouses) + 1;
  const int total = config.pct_new_order + config.pct_payment + config.pct_order_status +
                    config.pct_delivery + config.pct_stock_level;
  int roll = static_cast<int>(rng.Uniform(static_cast<uint64_t>(total)));
  if ((roll -= config.pct_new_order) < 0) {
    return {TpccArgs::Kind::kNewOrder, DrawNewOrder(config, w, rng)};
  }
  if ((roll -= config.pct_payment) < 0) {
    return {TpccArgs::Kind::kPayment, DrawPayment(config, w, rng)};
  }
  if ((roll -= config.pct_order_status) < 0) {
    return {TpccArgs::Kind::kOrderStatus, DrawOrderStatus(config, w, rng)};
  }
  if ((roll -= config.pct_delivery) < 0) {
    return {TpccArgs::Kind::kDelivery, DrawDelivery(w, rng)};
  }
  return {TpccArgs::Kind::kStockLevel, DrawStockLevel(w, rng)};
}

InvocationGenerator TpccInvocations(const TpccWorkloadConfig& config, DbHandle& db) {
  std::vector<ProcId> by_kind;  // kTpccProcedures is indexed by kind
  for (const TpccProcedure& p : kTpccProcedures) by_kind.push_back(db.proc(p.name));
  return [config, by_kind](int client_index, Rng& rng) {
    TpccDraw d = DrawTpccTxn(config, client_index, rng);
    return Invocation{by_kind[static_cast<size_t>(d.kind)], std::move(d.args)};
  };
}

DbOptions TpccDbOptions(const TpccScale& scale, const std::string& scheme, RunMode mode,
                        int sessions, uint64_t seed) {
  DbOptions opts;
  opts.scheme = scheme;
  opts.mode = mode;
  opts.num_partitions = scale.num_partitions;
  opts.max_sessions = sessions;
  opts.seed = seed;
  opts.engine_factory = MakeTpccEngineFactory(scale, seed);
  opts.procedures = TpccProcedures(scale);
  return opts;
}

}  // namespace tpcc
}  // namespace partdb

// The five TPC-C transactions. Each function executes this partition's share
// of the work (db.pid() decides the role). Undo records capture key + old
// value so they stay valid across table growth.
#include <set>
#include <type_traits>

#include "common/logging.h"
#include "tpcc/tpcc_engine.h"

namespace partdb {
namespace tpcc {

namespace {

/// Read-modify-write on a row with undo (and, under a multiversion scheme,
/// the redo that reinstalls the written version). `table` is any table whose
/// Find(key, m) returns a row pointer. Returns the row.
template <typename Table, typename Fn>
auto* Update(Table& table, uint64_t key, UndoBuffer* undo, WorkMeter* m, Fn&& mutate) {
  auto* row = table.Find(key, m);
  using V = std::remove_pointer_t<decltype(row)>;
  PARTDB_CHECK(row != nullptr);
  if (m != nullptr) {
    m->reads++;
    m->writes++;
  }
  if (undo != nullptr) {
    V old = *row;
    mutate(*row);
    undo->AddWithRedo([&table, key, old]() { *table.Find(key) = old; },
                      [&] {
                        V now = *row;
                        return [&table, key, now]() { *table.Find(key) = now; };
                      },
                      m);
    return row;
  }
  mutate(*row);
  return row;
}

/// Inserts a new row with undo (erase it again) and, under a multiversion
/// scheme, the redo that reinserts it.
template <typename Table, typename V>
void Insert(Table& table, uint64_t key, const V& row, UndoBuffer* undo, WorkMeter* m) {
  PARTDB_CHECK(table.Insert(key, row, m));
  if (undo != nullptr) {
    undo->AddWithRedo([&table, key]() { table.Erase(key); },
                      [&] {
                        return [&table, key, row]() { table.Insert(key, row); };
                      },
                      m);
  }
}

/// Resolves a customer id from a (w, d, last-name) triple: the customer at
/// position ceil(n/2) among matches ordered by first name (spec 2.5.2.2).
int32_t CustomerByName(TpccDb& db, int32_t w, int32_t d, const Str16& last, WorkMeter* m) {
  CustomerNameKey probe;
  probe.wd = DistrictKey(w, d);
  probe.last = last;
  std::vector<int32_t> ids;
  for (auto it = db.customers_by_name.LowerBound(probe, m); it.Valid(); it.Next()) {
    const CustomerNameKey& k = it.key();
    if (k.wd != probe.wd || !(k.last == last)) break;
    ids.push_back(k.c_id);
    if (m != nullptr) m->reads++;
  }
  PARTDB_CHECK(!ids.empty());
  return ids[(ids.size() + 1) / 2 - 1];
}

}  // namespace

ExecResult ExecNewOrder(TpccDb& db, const NewOrderArgs& a, UndoBuffer* undo, WorkMeter* m) {
  ExecResult res;
  const TpccScale& scale = db.scale();
  const bool home = scale.PartitionOf(a.w_id) == db.pid();

  if (home) {
    // Paper modification #1: validate every item before any write, so a user
    // abort (1% invalid item) needs no undo.
    for (const auto& line : a.lines) {
      const ItemRow* item = db.items.Find(static_cast<uint64_t>(line.i_id), m);
      if (m != nullptr) m->reads++;
      if (item == nullptr) {
        res.aborted = true;
        return res;
      }
    }

    const WarehouseRow* wr = db.warehouses.Find(static_cast<uint64_t>(a.w_id), m);
    PARTDB_CHECK(wr != nullptr);
    const double w_tax = wr->tax;
    if (m != nullptr) m->reads++;

    int32_t o_id = 0;
    double d_tax = 0;
    Update(db.districts, DistrictKey(a.w_id, a.d_id), undo, m, [&](DistrictRow& dr) {
      o_id = dr.next_o_id;
      d_tax = dr.tax;
      dr.next_o_id++;
    });

    const CustomerRow* cr = db.customers.Find(CustomerKey(a.w_id, a.d_id, a.c_id), m);
    PARTDB_CHECK(cr != nullptr);
    const double c_discount = cr->discount;
    if (m != nullptr) m->reads++;

    bool all_local = true;
    for (const auto& line : a.lines) {
      if (line.supply_w_id != a.w_id) all_local = false;
    }

    OrderRow orow;
    orow.o_id = o_id;
    orow.d_id = a.d_id;
    orow.w_id = a.w_id;
    orow.c_id = a.c_id;
    orow.entry_d = a.entry_d;
    orow.carrier_id = 0;
    orow.ol_cnt = static_cast<int32_t>(a.lines.size());
    orow.all_local = all_local;
    Insert(db.orders, OrderKey(a.w_id, a.d_id, o_id), orow, undo, m);
    Insert(db.new_orders, NewOrderKey(a.w_id, a.d_id, o_id), true, undo, m);
    {
      const uint64_t ck = CustomerKey(a.w_id, a.d_id, a.c_id);
      if (undo != nullptr) {
        int32_t* prev = db.last_order_of_customer.Find(ck);
        const bool existed = prev != nullptr;
        const int32_t old = existed ? *prev : 0;
        undo->AddWithRedo(
            [&db, ck, existed, old]() {
              if (existed) {
                db.last_order_of_customer.Put(ck, old);
              } else {
                db.last_order_of_customer.Erase(ck);
              }
            },
            [&] {
              return [&db, ck, o_id]() { db.last_order_of_customer.Put(ck, o_id); };
            },
            m);
      }
      db.last_order_of_customer.Put(ck, o_id, m);
      if (m != nullptr) m->writes++;
    }

    double total = 0;
    int32_t ol = 0;
    for (const auto& line : a.lines) {
      ++ol;
      const ItemRow* item = db.items.Find(static_cast<uint64_t>(line.i_id), m);
      PARTDB_CHECK(item != nullptr);
      // Read-only stock columns are replicated: read the dist info locally
      // even for remote supply warehouses (paper §5.5).
      const StockInfoRow* sinfo = db.stock_info.Find(StockKey(line.supply_w_id, line.i_id), m);
      PARTDB_CHECK(sinfo != nullptr);
      if (m != nullptr) m->reads += 2;

      if (scale.PartitionOf(line.supply_w_id) == db.pid()) {
        Update(db.stock, StockKey(line.supply_w_id, line.i_id), undo, m, [&](StockRow& s) {
          if (s.quantity - line.quantity >= 10) {
            s.quantity -= line.quantity;
          } else {
            s.quantity += 91 - line.quantity;
          }
          s.ytd += line.quantity;
          s.order_cnt++;
          if (line.supply_w_id != a.w_id) s.remote_cnt++;
        });
      }

      OrderLineRow olr;
      olr.o_id = o_id;
      olr.d_id = a.d_id;
      olr.w_id = a.w_id;
      olr.ol_number = ol;
      olr.i_id = line.i_id;
      olr.supply_w_id = line.supply_w_id;
      olr.delivery_d = 0;
      olr.quantity = line.quantity;
      olr.amount = line.quantity * item->price;
      olr.dist_info = sinfo->dist[a.d_id - 1];
      total += olr.amount;
      Insert(db.order_lines, OrderLineKey(a.w_id, a.d_id, o_id, ol), olr, undo, m);
      if (m != nullptr) {
        m->writes++;
        m->user_code++;
      }
    }

    auto out = std::make_shared<TpccResult>();
    out->id = o_id;
    out->amount = total * (1.0 - c_discount) * (1.0 + w_tax + d_tax);
    res.result = std::move(out);
    return res;
  }

  // Remote fragment: update the stock rows this partition owns. Validate
  // first — an invalid item (the 1% user-abort case) may be supplied
  // remotely, and this participant must vote abort without writing.
  for (const auto& line : a.lines) {
    if (scale.PartitionOf(line.supply_w_id) != db.pid()) continue;
    if (db.stock.Find(StockKey(line.supply_w_id, line.i_id), m) == nullptr) {
      res.aborted = true;
      return res;
    }
    if (m != nullptr) m->reads++;
  }
  for (const auto& line : a.lines) {
    if (scale.PartitionOf(line.supply_w_id) != db.pid()) continue;
    Update(db.stock, StockKey(line.supply_w_id, line.i_id), undo, m, [&](StockRow& s) {
      if (s.quantity - line.quantity >= 10) {
        s.quantity -= line.quantity;
      } else {
        s.quantity += 91 - line.quantity;
      }
      s.ytd += line.quantity;
      s.order_cnt++;
      if (line.supply_w_id != a.w_id) s.remote_cnt++;
    });
    if (m != nullptr) m->user_code++;
  }
  return res;
}

ExecResult ExecPayment(TpccDb& db, const PaymentArgs& a, UndoBuffer* undo, WorkMeter* m) {
  ExecResult res;
  const TpccScale& scale = db.scale();
  const bool home = scale.PartitionOf(a.w_id) == db.pid();
  const bool customer_side = scale.PartitionOf(a.c_w_id) == db.pid();

  if (home) {
    Update(db.warehouses, static_cast<uint64_t>(a.w_id), undo, m,
           [&](WarehouseRow& w) { w.ytd += a.amount; });
    Update(db.districts, DistrictKey(a.w_id, a.d_id), undo, m,
           [&](DistrictRow& d) { d.ytd += a.amount; });
    HistoryRow h;
    h.c_id = a.c_id;  // may be 0 when selected by name; resolved id is at the
                      // customer partition — record the lookup key fields.
    h.c_d_id = a.c_d_id;
    h.c_w_id = a.c_w_id;
    h.d_id = a.d_id;
    h.w_id = a.w_id;
    h.date = a.date;
    h.amount = a.amount;
    const uint64_t hid = db.next_history_id++;
    db.history.Put(hid, h, m);
    if (m != nullptr) m->writes++;
    if (undo != nullptr) {
      undo->AddWithRedo([&db, hid]() { db.history.Erase(hid); },
                        [&] {
                          return [&db, hid, h]() { db.history.Put(hid, h); };
                        },
                        m);
    }
  }

  if (customer_side) {
    const int32_t c_id =
        a.c_id != 0 ? a.c_id : CustomerByName(db, a.c_w_id, a.c_d_id, a.c_last, m);
    Update(db.customers, CustomerKey(a.c_w_id, a.c_d_id, c_id), undo, m, [&](CustomerRow& c) {
      c.balance -= a.amount;
      c.ytd_payment += a.amount;
      c.payment_cnt++;
      if (c.credit == Str2("BC")) {
        // Bad-credit customers get payment info prepended to C_DATA.
        char buf[32];
        const int n = std::snprintf(buf, sizeof(buf), "%d,%d,%d,%d,%.2f|", c_id, a.c_d_id,
                                    a.c_w_id, a.d_id, a.amount);
        c.data = Str32(std::string_view(buf, std::min<size_t>(static_cast<size_t>(n), 32)));
      }
    });
    auto out = std::make_shared<TpccResult>();
    out->id = c_id;
    out->amount = a.amount;
    res.result = std::move(out);
  }
  return res;
}

ExecResult ExecOrderStatus(TpccDb& db, const OrderStatusArgs& a, WorkMeter* m) {
  ExecResult res;
  const int32_t c_id = a.c_id != 0 ? a.c_id : CustomerByName(db, a.w_id, a.d_id, a.c_last, m);
  const CustomerRow* c = db.customers.Find(CustomerKey(a.w_id, a.d_id, c_id), m);
  PARTDB_CHECK(c != nullptr);
  if (m != nullptr) m->reads++;

  auto out = std::make_shared<TpccResult>();
  out->id = c_id;
  out->amount = c->balance;

  const int32_t* last = db.last_order_of_customer.Find(CustomerKey(a.w_id, a.d_id, c_id), m);
  if (last != nullptr) {
    const OrderRow* o = db.orders.Find(OrderKey(a.w_id, a.d_id, *last), m);
    PARTDB_CHECK(o != nullptr);
    if (m != nullptr) m->reads++;
    for (int32_t ol = 1; ol <= o->ol_cnt; ++ol) {
      const OrderLineRow* olr = db.order_lines.Find(OrderLineKey(a.w_id, a.d_id, *last, ol), m);
      PARTDB_CHECK(olr != nullptr);
      if (m != nullptr) m->reads++;
    }
  }
  res.result = std::move(out);
  return res;
}

ExecResult ExecDelivery(TpccDb& db, const DeliveryArgs& a, UndoBuffer* undo, WorkMeter* m) {
  ExecResult res;
  int delivered = 0;
  double total_amount = 0;

  for (int32_t d = 1; d <= TpccScale::kDistrictsPerWarehouse; ++d) {
    // Oldest undelivered order for this district (delete-min on the AVL).
    uint64_t key = 0;
    bool* dummy = nullptr;
    if (!db.new_orders.LowerBound(NewOrderKey(a.w_id, d, 0), &key, &dummy, m)) continue;
    if (key >= NewOrderKey(a.w_id, d + 1, 0)) continue;  // none in this district
    const int32_t o_id = static_cast<int32_t>(key & 0xFFFFFFFFu);

    PARTDB_CHECK(db.new_orders.Erase(key, m));
    if (m != nullptr) m->writes++;
    if (undo != nullptr) {
      undo->AddWithRedo([&db, key]() { db.new_orders.Insert(key, true); },
                        [&] {
                          return [&db, key]() { db.new_orders.Erase(key); };
                        },
                        m);
    }

    const OrderRow* o = Update(db.orders, OrderKey(a.w_id, d, o_id), undo, m,
                               [&](OrderRow& row) { row.carrier_id = a.carrier_id; });

    double sum = 0;
    for (int32_t ol = 1; ol <= o->ol_cnt; ++ol) {
      const OrderLineRow* olr = Update(db.order_lines, OrderLineKey(a.w_id, d, o_id, ol), undo, m,
                                       [&](OrderLineRow& row) { row.delivery_d = a.date; });
      sum += olr->amount;
    }

    Update(db.customers, CustomerKey(a.w_id, d, o->c_id), undo, m, [&](CustomerRow& c) {
      c.balance += sum;
      c.delivery_cnt++;
    });
    total_amount += sum;
    ++delivered;
  }

  auto out = std::make_shared<TpccResult>();
  out->id = delivered;
  out->amount = total_amount;
  res.result = std::move(out);
  return res;
}

ExecResult ExecStockLevel(TpccDb& db, const StockLevelArgs& a, WorkMeter* m) {
  ExecResult res;
  const DistrictRow* d = db.districts.Find(DistrictKey(a.w_id, a.d_id), m);
  PARTDB_CHECK(d != nullptr);
  if (m != nullptr) m->reads++;

  // Items in the district's last 20 orders with stock below the threshold.
  std::set<int32_t> seen;
  int low = 0;
  const int32_t from = std::max(1, d->next_o_id - 20);
  for (int32_t o = from; o < d->next_o_id; ++o) {
    const OrderRow* orow = db.orders.Find(OrderKey(a.w_id, a.d_id, o), m);
    if (orow == nullptr) continue;
    for (int32_t ol = 1; ol <= orow->ol_cnt; ++ol) {
      const OrderLineRow* olr = db.order_lines.Find(OrderLineKey(a.w_id, a.d_id, o, ol), m);
      PARTDB_CHECK(olr != nullptr);
      if (m != nullptr) m->reads++;
      if (!seen.insert(olr->i_id).second) continue;
      const StockRow* s = db.stock.Find(StockKey(a.w_id, olr->i_id), m);
      PARTDB_CHECK(s != nullptr);
      if (m != nullptr) m->reads++;
      if (s->quantity < a.threshold) ++low;
    }
  }
  auto out = std::make_shared<TpccResult>();
  out->id = low;
  res.result = std::move(out);
  return res;
}

}  // namespace tpcc
}  // namespace partdb

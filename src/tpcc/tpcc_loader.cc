#include "tpcc/tpcc_loader.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace partdb {
namespace tpcc {

Str16 LastName(int n) {
  static const char* kSyllables[10] = {"BAR",   "OUGHT", "ABLE", "PRI",   "PRES",
                                       "ESE",   "ANTI",  "CALLY", "ATION", "EING"};
  char buf[16];
  size_t len = 0;
  const int digits[3] = {(n / 100) % 10, (n / 10) % 10, n % 10};
  for (int d : digits) {
    const size_t l = std::strlen(kSyllables[d]);
    PARTDB_CHECK(len + l <= sizeof(buf));
    std::memcpy(buf + len, kSyllables[d], l);
    len += l;
  }
  return Str16(std::string_view(buf, len));
}

namespace {

HashTable<uint64_t, ItemRow> LoadItems(const TpccScale& scale, Rng& rng) {
  HashTable<uint64_t, ItemRow> items;
  for (int32_t i = 1; i <= scale.items; ++i) {
    ItemRow item;
    item.i_id = i;
    item.im_id = static_cast<int32_t>(rng.UniformRange(1, 10000));
    item.name = RandAlpha<24>(rng, 14, 24);
    item.price = static_cast<double>(rng.UniformRange(100, 10000)) / 100.0;
    item.data = RandAlpha<32>(rng, 16, 32);
    items.Put(static_cast<uint64_t>(i), item);
  }
  return items;
}

HashTable<uint64_t, StockInfoRow> LoadStockInfo(const TpccScale& scale, Rng& rng) {
  // Replicated read-only stock columns for every (warehouse, item) pair.
  HashTable<uint64_t, StockInfoRow> stock_info;
  for (int32_t w = 1; w <= scale.num_warehouses; ++w) {
    for (int32_t i = 1; i <= scale.items; ++i) {
      StockInfoRow info;
      info.i_id = i;
      info.w_id = w;
      for (auto& d : info.dist) d = RandAlpha<24>(rng, 24, 24);
      info.data = RandAlpha<32>(rng, 16, 32);
      stock_info.Put(StockKey(w, i), info);
    }
  }
  return stock_info;
}

void LoadWarehouse(TpccDb* db, int32_t w, Rng& rng) {
  const TpccScale& scale = db->scale();

  WarehouseRow wr;
  wr.w_id = w;
  wr.name = RandAlpha<16>(rng, 6, 10);
  wr.street_1 = RandAlpha<20>(rng, 10, 20);
  wr.city = RandAlpha<20>(rng, 10, 20);
  wr.state = RandAlpha<2>(rng, 2, 2);
  wr.zip = Str9("123456789");
  wr.tax = static_cast<double>(rng.UniformRange(0, 2000)) / 10000.0;
  wr.ytd = 300000.0;
  db->warehouses.Put(static_cast<uint64_t>(w), wr);

  // Partitioned stock columns for this warehouse.
  for (int32_t i = 1; i <= scale.items; ++i) {
    StockRow s;
    s.i_id = i;
    s.w_id = w;
    s.quantity = static_cast<int32_t>(rng.UniformRange(10, 100));
    db->stock.Put(StockKey(w, i), s);
  }

  for (int32_t d = 1; d <= TpccScale::kDistrictsPerWarehouse; ++d) {
    DistrictRow dr;
    dr.d_id = d;
    dr.w_id = w;
    dr.name = RandAlpha<16>(rng, 6, 10);
    dr.tax = static_cast<double>(rng.UniformRange(0, 2000)) / 10000.0;
    dr.ytd = 30000.0;
    dr.next_o_id = scale.initial_orders_per_district + 1;
    db->districts.Put(DistrictKey(w, d), dr);

    const int ncust = scale.customers_per_district;
    for (int32_t c = 1; c <= ncust; ++c) {
      CustomerRow cr;
      cr.c_id = c;
      cr.d_id = d;
      cr.w_id = w;
      // First 1000 customers get sequential last names; the rest NURand.
      cr.last = LastName(c <= 1000 ? c - 1 : NURand(rng, 255, 0, 999, 123));
      cr.first = RandAlpha<16>(rng, 8, 16);
      cr.middle = Str2("OE");
      cr.street_1 = RandAlpha<20>(rng, 10, 20);
      cr.city = RandAlpha<20>(rng, 10, 20);
      cr.state = RandAlpha<2>(rng, 2, 2);
      cr.zip = Str9("123411111");
      cr.phone = RandAlpha<16>(rng, 16, 16);
      cr.since = 0;
      cr.credit = rng.Bernoulli(0.10) ? Str2("BC") : Str2("GC");
      cr.credit_lim = 50000.0;
      cr.discount = static_cast<double>(rng.UniformRange(0, 5000)) / 10000.0;
      cr.balance = -10.0;
      cr.ytd_payment = 10.0;
      cr.payment_cnt = 1;
      cr.data = RandAlpha<32>(rng, 16, 32);
      db->customers.Put(CustomerKey(w, d, c), cr);
      db->customers_by_name.Insert(CustomerNameKey{DistrictKey(w, d), cr.last, cr.first, c},
                                   CustomerKey(w, d, c));
      HistoryRow h;
      h.c_id = c;
      h.c_d_id = d;
      h.c_w_id = w;
      h.d_id = d;
      h.w_id = w;
      h.amount = 10.0;
      db->history.Put(db->next_history_id++, h);
    }

    // Initial orders over a permutation of customers; the last third are
    // undelivered (NEW_ORDER rows).
    std::vector<int32_t> perm(scale.initial_orders_per_district);
    std::iota(perm.begin(), perm.end(), 1);
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Uniform(i)]);
    }
    for (int32_t o = 1; o <= scale.initial_orders_per_district; ++o) {
      OrderRow orow;
      orow.o_id = o;
      orow.d_id = d;
      orow.w_id = w;
      orow.c_id = ((perm[o - 1] - 1) % ncust) + 1;
      orow.ol_cnt = static_cast<int32_t>(rng.UniformRange(5, 15));
      const bool delivered = o <= scale.initial_orders_per_district * 2 / 3;
      orow.carrier_id = delivered ? static_cast<int32_t>(rng.UniformRange(1, 10)) : 0;
      db->orders.Insert(OrderKey(w, d, o), orow);
      db->last_order_of_customer.Put(CustomerKey(w, d, orow.c_id), o);
      if (!delivered) db->new_orders.Insert(NewOrderKey(w, d, o), true);

      for (int32_t ol = 1; ol <= orow.ol_cnt; ++ol) {
        OrderLineRow olr;
        olr.o_id = o;
        olr.d_id = d;
        olr.w_id = w;
        olr.ol_number = ol;
        olr.i_id = static_cast<int32_t>(rng.UniformRange(1, scale.items));
        olr.supply_w_id = w;
        olr.delivery_d = delivered ? 1 : 0;
        olr.quantity = 5;
        olr.amount = delivered
                         ? 0.0
                         : static_cast<double>(rng.UniformRange(1, 999999)) / 100.0;
        olr.dist_info = RandAlpha<24>(rng, 24, 24);
        db->order_lines.Insert(OrderLineKey(w, d, o, ol), olr);
      }
    }
  }
}

}  // namespace

std::shared_ptr<const ReplicatedTables> LoadReplicated(const TpccScale& scale, uint64_t seed) {
  // One stream, items first: every copy loaded from `seed` is identical.
  Rng rng(Mix64(seed ^ 0x5eedf00dull));
  HashTable<uint64_t, ItemRow> items = LoadItems(scale, rng);
  HashTable<uint64_t, StockInfoRow> stock_info = LoadStockInfo(scale, rng);
  return std::shared_ptr<const ReplicatedTables>(
      new ReplicatedTables{std::move(items), std::move(stock_info)});
}

void LoadPartition(TpccDb* db, uint64_t seed) {
  for (int32_t w : db->scale().WarehousesOf(db->pid())) {
    // Per-warehouse seed: identical regardless of which partition loads it.
    Rng rng(Mix64(seed ^ (0xabcdefull + static_cast<uint64_t>(w) * 0x9e3779b9ull)));
    LoadWarehouse(db, w, rng);
  }
}

}  // namespace tpcc
}  // namespace partdb

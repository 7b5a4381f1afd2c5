#include "tpcc/tpcc_db.h"

#include <type_traits>

#include "common/rng.h"

namespace partdb {
namespace tpcc {

namespace {

uint64_t HashBytes(const void* data, size_t n, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed ^ 0xcbf29ce484222325ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return Mix64(h);
}

template <size_t N>
uint64_t HashStr(const InlineString<N>& s, uint64_t seed) {
  return HashBytes(s.data(), s.size(), seed);
}

uint64_t HashDouble(double v, uint64_t seed) {
  // Monetary values are sums of exact cent amounts; round to avoid
  // accumulation-order noise in the hash.
  const int64_t cents = static_cast<int64_t>(v * 100.0 + (v >= 0 ? 0.5 : -0.5));
  return Mix64(seed ^ static_cast<uint64_t>(cents));
}

}  // namespace

uint64_t TpccDb::StateHash() const {
  uint64_t h = 0;

  warehouses.ForEach([&](const uint64_t& k, const WarehouseRow& r) {
    h ^= Mix64(k ^ HashDouble(r.ytd, 0x11));
  });
  districts.ForEach([&](const uint64_t& k, const DistrictRow& r) {
    h ^= Mix64(k ^ HashDouble(r.ytd, 0x22) ^ Mix64(static_cast<uint64_t>(r.next_o_id)));
  });
  customers.ForEach([&](const uint64_t& k, const CustomerRow& r) {
    uint64_t c = HashDouble(r.balance, 0x33) ^ HashDouble(r.ytd_payment, 0x44) ^
                 Mix64(static_cast<uint64_t>(r.payment_cnt) |
                       (static_cast<uint64_t>(r.delivery_cnt) << 32)) ^
                 HashStr(r.data, 0x55);
    h ^= Mix64(k ^ c);
  });
  uint64_t hist = 0;
  history.ForEach([&hist](const uint64_t&, const HistoryRow& r) {
    // Content-only (the id key depends on execution interleaving).
    hist ^= Mix64(CustomerKey(r.c_w_id, r.c_d_id, r.c_id) ^ HashDouble(r.amount, 0x66) ^
                  Mix64(DistrictKey(r.w_id, r.d_id)));
  });
  h ^= hist;
  for (auto it = const_cast<TpccDb*>(this)->orders.Begin(); it.Valid(); it.Next()) {
    const OrderRow& r = it.value();
    h ^= Mix64(it.key() ^ Mix64(static_cast<uint64_t>(r.c_id) ^
                                (static_cast<uint64_t>(r.carrier_id) << 24) ^
                                (static_cast<uint64_t>(r.ol_cnt) << 48)));
  }
  const_cast<TpccDb*>(this)->new_orders.ForEach(
      [&](const uint64_t& k, bool&) { h ^= Mix64(k ^ 0x77); });
  for (auto it = const_cast<TpccDb*>(this)->order_lines.Begin(); it.Valid(); it.Next()) {
    const OrderLineRow& r = it.value();
    h ^= Mix64(it.key() ^ HashDouble(r.amount, 0x88) ^
               Mix64(static_cast<uint64_t>(r.i_id) ^
                     (static_cast<uint64_t>(r.quantity) << 32) ^
                     static_cast<uint64_t>(r.delivery_d != 0 ? 1 : 0) << 63));
  }
  stock.ForEach([&](const uint64_t& k, const StockRow& r) {
    h ^= Mix64(k ^ Mix64(static_cast<uint64_t>(static_cast<uint32_t>(r.quantity)) ^
                         (static_cast<uint64_t>(r.order_cnt) << 32) ^
                         (static_cast<uint64_t>(r.remote_cnt) << 48)) ^
               HashDouble(r.ytd, 0x99));
  });
  last_order_of_customer.ForEach([&](const uint64_t& k, const int32_t& o) {
    h ^= Mix64(k ^ (static_cast<uint64_t>(o) << 32));
  });
  return h;
}

// ------------------------------------------------------------ checkpoint --
// Each row's field list is its checkpoint layout, in declaration order:
// every field explicit, so struct padding never touches the image.

namespace {

template <typename Io, FieldsOf<WarehouseRow> Row>
void Fields(Io& io, Row& r) {
  io.Field(r.w_id);
  io.Field(r.name);
  io.Field(r.street_1);
  io.Field(r.street_2);
  io.Field(r.city);
  io.Field(r.state);
  io.Field(r.zip);
  io.Field(r.tax);
  io.Field(r.ytd);
}

template <typename Io, FieldsOf<DistrictRow> Row>
void Fields(Io& io, Row& r) {
  io.Field(r.d_id);
  io.Field(r.w_id);
  io.Field(r.name);
  io.Field(r.street_1);
  io.Field(r.street_2);
  io.Field(r.city);
  io.Field(r.state);
  io.Field(r.zip);
  io.Field(r.tax);
  io.Field(r.ytd);
  io.Field(r.next_o_id);
}

template <typename Io, FieldsOf<CustomerRow> Row>
void Fields(Io& io, Row& r) {
  io.Field(r.c_id);
  io.Field(r.d_id);
  io.Field(r.w_id);
  io.Field(r.first);
  io.Field(r.middle);
  io.Field(r.last);
  io.Field(r.street_1);
  io.Field(r.street_2);
  io.Field(r.city);
  io.Field(r.state);
  io.Field(r.zip);
  io.Field(r.phone);
  io.Field(r.since);
  io.Field(r.credit);
  io.Field(r.credit_lim);
  io.Field(r.discount);
  io.Field(r.balance);
  io.Field(r.ytd_payment);
  io.Field(r.payment_cnt);
  io.Field(r.delivery_cnt);
  io.Field(r.data);
}

template <typename Io, FieldsOf<HistoryRow> Row>
void Fields(Io& io, Row& r) {
  io.Field(r.c_id);
  io.Field(r.c_d_id);
  io.Field(r.c_w_id);
  io.Field(r.d_id);
  io.Field(r.w_id);
  io.Field(r.date);
  io.Field(r.amount);
  io.Field(r.data);
}

template <typename Io, FieldsOf<OrderRow> Row>
void Fields(Io& io, Row& r) {
  io.Field(r.o_id);
  io.Field(r.d_id);
  io.Field(r.w_id);
  io.Field(r.c_id);
  io.Field(r.entry_d);
  io.Field(r.carrier_id);
  io.Field(r.ol_cnt);
  io.Field(r.all_local);
}

template <typename Io, FieldsOf<OrderLineRow> Row>
void Fields(Io& io, Row& r) {
  io.Field(r.o_id);
  io.Field(r.d_id);
  io.Field(r.w_id);
  io.Field(r.ol_number);
  io.Field(r.i_id);
  io.Field(r.supply_w_id);
  io.Field(r.delivery_d);
  io.Field(r.quantity);
  io.Field(r.amount);
  io.Field(r.dist_info);
}

template <typename Io, FieldsOf<StockRow> Row>
void Fields(Io& io, Row& r) {
  io.Field(r.i_id);
  io.Field(r.w_id);
  io.Field(r.quantity);
  io.Field(r.ytd);
  io.Field(r.order_cnt);
  io.Field(r.remote_cnt);
}

/// A last_order_of_customer entry: the customer's last o_id.
template <typename Io, FieldsOf<int32_t> V>
void Fields(Io& io, V& o_id) {
  io.Field(o_id);
}

/// A new_orders entry is its key alone; the tree's value is always true.
template <typename Io, FieldsOf<bool> V>
void Fields(Io& /*io*/, V& exists) {
  if constexpr (!std::is_const_v<V>) exists = true;
}

/// fn(key, row) over a hash table or the AVL tree, or in key order over a
/// B+tree.
template <typename T, typename Fn>
void ForEachEntry(const T& table, Fn&& fn) {
  table.ForEach(fn);
}
template <typename Row, typename Fn>
void ForEachEntry(const BPlusTree<uint64_t, Row, 16>& tree, Fn&& fn) {
  for (auto it = const_cast<BPlusTree<uint64_t, Row, 16>&>(tree).Begin(); it.Valid(); it.Next()) {
    fn(it.key(), it.value());
  }
}

template <typename T, typename Row>
void Insert(T& tree, uint64_t k, const Row& row) {
  tree.Insert(k, row);
}
template <typename Row>
void Insert(HashTable<uint64_t, Row>& table, uint64_t k, const Row& row) {
  table.Put(k, row);
}

/// One table: `u64 count`, then `u64 key | row fields` per entry.
template <typename T>
void Table(WireWriter& w, const T& table) {
  w.U64(table.size());
  ForEachEntry(table, [&w](uint64_t k, const auto& row) {
    w.U64(k);
    Fields(w, row);
  });
}
template <typename T>
void Table(WireReader& r, T& table) {
  // Every entry is at least its 8-byte key: a count the bytes cannot hold is
  // refused before the table is touched.
  uint64_t n = 0;
  r.Count(n, sizeof(uint64_t));
  if (!r.ok()) return;
  table.Clear();
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    const uint64_t k = r.U64();
    std::remove_cvref_t<decltype(*table.Find(k))> row{};
    Fields(r, row);
    Insert(table, k, row);
  }
}

/// The checkpoint image: the history id counter, then the partitioned
/// tables in this order.
template <typename Io, FieldsOf<TpccDb> Db>
void Tables(Io& io, Db& db) {
  io.Field(db.next_history_id);
  Table(io, db.warehouses);
  Table(io, db.districts);
  Table(io, db.customers);
  Table(io, db.history);
  Table(io, db.stock);
  Table(io, db.orders);
  Table(io, db.order_lines);
  Table(io, db.last_order_of_customer);
  Table(io, db.new_orders);
}

}  // namespace

void TpccDb::SerializeTo(WireWriter& w) const { Tables(w, *this); }

bool TpccDb::RestoreFrom(WireReader& r) {
  Tables(r, *this);
  // Secondary index: rebuilt, not stored.
  customers_by_name.Clear();
  customers.ForEach([this](const uint64_t&, const CustomerRow& c) {
    customers_by_name.Insert(
        CustomerNameKey{DistrictKey(c.w_id, c.d_id), c.last, c.first, c.c_id},
        CustomerKey(c.w_id, c.d_id, c.c_id));
  });
  return r.ok();
}

}  // namespace tpcc
}  // namespace partdb

// Per-partition TPC-C database: tables and indexes (paper §5: "each table is
// represented as either a B-Tree, a binary tree, or hash table, as
// appropriate"). Warehouses are range-partitioned; the items table and the
// read-only stock columns are replicated to every partition (paper §5.5).
// Inside one process the replicated tables are one immutable copy
// (ReplicatedTables) that every partition's TpccDb shares and reads as
// const tables. A checkpoint image is the partitioned tables in one fixed
// order, each row written by its one field list (msg/wire.h), which restore
// runs too.
#ifndef PARTDB_TPCC_TPCC_DB_H_
#define PARTDB_TPCC_TPCC_DB_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"
#include "msg/wire.h"
#include "storage/avl_tree.h"
#include "storage/btree.h"
#include "storage/hash_table.h"
#include "tpcc/tpcc_schema.h"

namespace partdb {
namespace tpcc {

/// Scale and partitioning parameters. Defaults are scaled down from the spec
/// (100k items, 3000 customers/district) so sweeps over many warehouse counts
/// stay fast; ratios relevant to the paper's experiments are preserved.
struct TpccScale {
  int num_warehouses = 6;
  int num_partitions = 2;
  int items = 10000;                 // spec: 100000
  int customers_per_district = 300;  // spec: 3000
  int initial_orders_per_district = 300;  // spec: 3000 (last 1/3 undelivered)
  static constexpr int kDistrictsPerWarehouse = 10;

  /// Warehouses 1..W are block-assigned: partition p owns an equal slice.
  PartitionId PartitionOf(int32_t w_id) const {
    return static_cast<PartitionId>((static_cast<int64_t>(w_id - 1) * num_partitions) /
                                    num_warehouses);
  }
  std::vector<int32_t> WarehousesOf(PartitionId p) const {
    std::vector<int32_t> out;
    for (int32_t w = 1; w <= num_warehouses; ++w) {
      if (PartitionOf(w) == p) out.push_back(w);
    }
    return out;
  }
};

/// The replicated tables (read-only in the TPC-C mix; identical on every
/// partition). Filled once by LoadReplicated and shared, const, by every
/// engine of a database: primaries, backups and replay engines.
struct ReplicatedTables {
  const HashTable<uint64_t, ItemRow> items;
  const HashTable<uint64_t, StockInfoRow> stock_info;  // StockKey -> read-only cols
};

class TpccDb {
 public:
  TpccDb(TpccScale scale, PartitionId pid, std::shared_ptr<const ReplicatedTables> replicated)
      : items(replicated->items),
        stock_info(replicated->stock_info),
        scale_(scale),
        pid_(pid),
        replicated_(std::move(replicated)) {}

  const TpccScale& scale() const { return scale_; }
  PartitionId pid() const { return pid_; }

  // Partitioned tables (hash for point access, B+tree where ranges are
  // scanned, AVL for the delete-min NEW_ORDER workload).
  HashTable<uint64_t, WarehouseRow> warehouses;
  HashTable<uint64_t, DistrictRow> districts;
  HashTable<uint64_t, CustomerRow> customers;
  BPlusTree<CustomerNameKey, uint64_t, 16> customers_by_name;  // -> CustomerKey
  /// Append-only heap, keyed by a per-partition id so that undo can remove a
  /// specific row (positional pop is unsafe under OCC's selective rollback).
  HashTable<uint64_t, HistoryRow> history;
  uint64_t next_history_id = 1;
  BPlusTree<uint64_t, OrderRow, 16> orders;
  HashTable<uint64_t, int32_t> last_order_of_customer;  // CustomerKey -> o_id
  AvlTree<uint64_t, bool> new_orders;                   // NewOrderKey -> exists
  BPlusTree<uint64_t, OrderLineRow, 16> order_lines;
  HashTable<uint64_t, StockRow> stock;  // updatable columns, partitioned

  // The shared replicated tables, read-only.
  const HashTable<uint64_t, ItemRow>& items;
  const HashTable<uint64_t, StockInfoRow>& stock_info;

  /// Order-independent hash over all partitioned (mutable) state.
  uint64_t StateHash() const;

  /// Checkpoint serialization of all partitioned (mutable) tables: both
  /// directions walk one list of the tables, in a fixed order. The
  /// replicated read-only tables (items, stock_info) are not written: the
  /// engine factory loads them deterministically, and RestoreFrom leaves
  /// them untouched. customers_by_name is rebuilt from the customer rows.
  void SerializeTo(WireWriter& w) const;
  bool RestoreFrom(WireReader& r);

 private:
  TpccScale scale_;
  PartitionId pid_;
  std::shared_ptr<const ReplicatedTables> replicated_;  // keeps items, stock_info alive
};

}  // namespace tpcc
}  // namespace partdb

#endif  // PARTDB_TPCC_TPCC_DB_H_

// Component microbenchmarks (google-benchmark): real-time cost of the
// storage substrates, lock manager, undo machinery, and engine execution
// paths that underlie the simulated system.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "common/rng.h"
#include "durability/log_format.h"
#include "engine/lock_manager.h"
#include "kv/kv_engine.h"
#include "kv/kv_procedures.h"
#include "kv/kv_workload.h"
#include "tpcc/tpcc_procedures.h"
#include "storage/avl_tree.h"
#include "storage/btree.h"
#include "storage/hash_table.h"
#include "storage/undo_buffer.h"
#include "tpcc/tpcc_engine.h"
#include "tpcc/tpcc_workload.h"

namespace partdb {
namespace {

void BM_BTreeInsert(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    BPlusTree<uint64_t, uint64_t> t;
    Rng rng(1);
    state.ResumeTiming();
    for (int i = 0; i < n; ++i) t.Insert(rng.Next(), i);
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(100000);

void BM_BTreeFind(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  BPlusTree<uint64_t, uint64_t> t;
  Rng fill(1);
  std::vector<uint64_t> keys;
  for (int i = 0; i < n; ++i) {
    keys.push_back(fill.Next());
    t.Insert(keys.back(), i);
  }
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Find(keys[rng.Uniform(keys.size())]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeFind)->Arg(1000)->Arg(100000);

void BM_HashTableLookup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  HashTable<uint64_t, uint64_t> h;
  for (int i = 0; i < n; ++i) h.Put(static_cast<uint64_t>(i) * 2654435761u, i);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Find(rng.Uniform(n) * 2654435761u));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashTableLookup)->Arg(1000)->Arg(100000);

void BM_AvlInsertEraseMin(benchmark::State& state) {
  // The NEW_ORDER pattern: insert at the high end, delete-min.
  AvlTree<uint64_t, bool> t;
  uint64_t next = 0;
  for (int i = 0; i < 1000; ++i) t.Insert(next++, true);
  for (auto _ : state) {
    t.Insert(next++, true);
    uint64_t min_key = 0;
    bool* unused = nullptr;
    t.LowerBound(0, &min_key, &unused);
    t.Erase(min_key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AvlInsertEraseMin);

void BM_LockManagerUncontended(benchmark::State& state) {
  LockManager lm;
  WorkMeter m;
  LockManager::Owner owner;
  std::vector<LockManager::Granted> granted;
  for (auto _ : state) {
    for (uint64_t i = 0; i < 12; ++i) lm.Acquire(i, &owner, true, &m);
    lm.ReleaseAll(&owner, &m, &granted);
    granted.clear();
  }
  state.SetItemsProcessed(state.iterations() * 12);
}
BENCHMARK(BM_LockManagerUncontended);

void BM_LockManagerContended(benchmark::State& state) {
  LockManager lm;
  WorkMeter m;
  LockManager::Owner a, b;
  std::vector<LockManager::Granted> granted;
  for (auto _ : state) {
    lm.Acquire(1, &a, true, &m);
    lm.Acquire(1, &b, true, &m);  // queues
    lm.ReleaseAll(&a, &m, &granted);
    lm.ReleaseAll(&b, &m, &granted);
    granted.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockManagerContended);

void BM_UndoRollback(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  uint64_t sink = 0;
  for (auto _ : state) {
    UndoBuffer u;
    for (int i = 0; i < n; ++i) u.Add([&sink, i] { sink += static_cast<uint64_t>(i); });
    u.Rollback();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UndoRollback)->Arg(12);

void BM_KvTxnExecute(benchmark::State& state) {
  KvWorkloadOptions mb;
  mb.num_partitions = 1;
  mb.num_clients = 4;
  mb.mp_fraction = 0;
  KvEngine engine(0);
  for (int c = 0; c < mb.num_clients; ++c) {
    for (int i = 0; i < mb.keys_per_txn; ++i) {
      engine.store().Put(MicrobenchKey(c, 0, i), EncodeValue(0));
    }
  }
  Rng rng(1);
  for (auto _ : state) {
    PayloadPtr args = DrawKvTxn(mb, 0, rng);
    WorkMeter m;
    benchmark::DoNotOptimize(engine.Execute(*args, 0, nullptr, nullptr, &m));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvTxnExecute);

/// The paper's single-partition transaction: 12 keys on one of 2 partitions.
PayloadPtr SpKvArgs() {
  KvWorkloadOptions mb;
  mb.mp_fraction = 0;
  Rng rng(1);
  return DrawKvTxn(mb, 0, rng);
}

void BM_KvArgsEncode(benchmark::State& state) {
  const auto args = SpKvArgs();
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    WireWriter w(&buf);
    args->SerializeTo(w);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvArgsEncode);

// The live command log's encoder: one framed record per commit, appended on
// the partition worker under the log lock.
void BM_AppendLogRecord(benchmark::State& state) {
  CommitRecord rec;
  rec.txn_id = 1;
  rec.proc = 0;
  rec.args = SpKvArgs();
  std::string buf;
  uint64_t seq = 0;
  for (auto _ : state) {
    buf.clear();
    AppendLogRecord(++seq, rec, &buf);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AppendLogRecord);

// One partition's checkpoint image at 8192 users x 12 keys (a partition
// stall: Database::Checkpoint runs it at the partition's idle point).
void BM_KvCheckpointEncode(benchmark::State& state) {
  KvWorkloadOptions mb;
  mb.num_clients = 8192;
  const std::unique_ptr<Engine> engine = MakeKvEngineFactory(mb)(0);
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    WireWriter w(&buf);
    engine->SerializeState(w);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvCheckpointEncode)->Unit(benchmark::kMillisecond);

void BM_TpccNewOrderExecute(benchmark::State& state) {
  tpcc::TpccScale scale;
  scale.num_warehouses = 2;
  scale.num_partitions = 1;
  scale.items = 1000;
  scale.customers_per_district = 100;
  scale.initial_orders_per_district = 100;
  tpcc::TpccEngine engine(scale, 0, 1);
  tpcc::TpccWorkloadConfig wl_cfg;
  wl_cfg.scale = scale;
  wl_cfg.pct_new_order = 100;
  wl_cfg.pct_payment = wl_cfg.pct_order_status = wl_cfg.pct_delivery = wl_cfg.pct_stock_level =
      0;
  Rng rng(1);
  for (auto _ : state) {
    tpcc::TpccDraw draw = tpcc::DrawTpccTxn(wl_cfg, 0, rng);
    WorkMeter m;
    UndoBuffer undo;
    ExecResult r = engine.Execute(*draw.args, 0, nullptr, &undo, &m);
    benchmark::DoNotOptimize(r);
    state.PauseTiming();
    undo.Rollback();  // keep the database from growing across iterations
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TpccNewOrderExecute);

}  // namespace
}  // namespace partdb

BENCHMARK_MAIN();

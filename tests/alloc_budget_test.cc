// Heap blocks per completed transaction, per scheme and workload, in the
// simulator. The simulator runs every actor on one thread in a fixed order,
// so a counting operator new (tests/counting_new.h) reads the same count on
// every run: an allocation added to or removed from a transaction's path
// moves a budget here exactly, where a throughput gate could not see it.
//
// Each cell runs the closed loop twice from the same seed, with a 100 and a
// 300 virtual-ms measurement window. The runs are identical up to the end of
// the shorter window, so the difference of their allocation counts over the
// difference of their completions is the steady-state blocks per
// transaction; set-up, warmup and drain cancel out.
//
// A change that lowers a count lowers its budget in the same change. A
// change that raises one says why: raising a budget to get a pass is
// loosening the check.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "counting_new.h"
#include "db/closed_loop.h"
#include "gtest/gtest.h"
#include "kv/kv_procedures.h"
#include "tpcc/tpcc_procedures.h"

namespace partdb {
namespace {

constexpr uint64_t kSeed = 1;
constexpr Duration kWarmup = Micros(20000);
constexpr Duration kShortWindow = Micros(100000);
constexpr Duration kLongWindow = Micros(300000);

enum class Workload { kKvSp, kKvMp10, kTpcc, kKvMp10Repl2 };

struct Count {
  uint64_t allocations = 0;
  uint64_t completions = 0;
};

/// Runs one closed loop of `measure` and counts the heap blocks it allocates.
Count RunOnce(Workload w, const std::string& scheme, Duration measure) {
  std::unique_ptr<Database> db;
  ClosedLoopOptions loop;
  loop.warmup = kWarmup;
  loop.measure = measure;
  if (w == Workload::kTpcc) {
    tpcc::TpccWorkloadConfig wl;
    wl.scale.num_warehouses = 4;
    wl.scale.num_partitions = 2;
    wl.scale.items = 1000;
    wl.scale.customers_per_district = 60;
    wl.scale.initial_orders_per_district = 60;
    loop.num_clients = 8;
    db = Database::Open(tpcc::TpccDbOptions(wl.scale, scheme, RunMode::kSimulated, 8, kSeed));
    loop.next = tpcc::TpccInvocations(wl, *db);
  } else {
    KvWorkloadOptions mb;  // 2 partitions, 40 clients
    mb.mp_fraction = w == Workload::kKvSp ? 0.0 : 0.1;
    loop.num_clients = mb.num_clients;
    DbOptions opts = KvDbOptions(mb, scheme, RunMode::kSimulated, kSeed);
    // Two replicas: every reply is held for its backup's ack, and every
    // shipped MP waits at the backup for its decision.
    if (w == Workload::kKvMp10Repl2) opts.replication = 2;
    db = Database::Open(std::move(opts));
    loop.next = KvInvocations(mb, *db);
  }
  g_allocations.store(0);
  g_counting.store(true);
  const Metrics m = RunClosedLoop(*db, loop);
  g_counting.store(false);
  db->Close();
  return {g_allocations.load(), m.completions()};
}

/// Steady-state heap blocks per completed transaction.
double BlocksPerTxn(Workload w, const std::string& scheme) {
  const Count short_run = RunOnce(w, scheme, kShortWindow);
  const Count long_run = RunOnce(w, scheme, kLongWindow);
  EXPECT_GT(long_run.completions, short_run.completions) << scheme;
  return static_cast<double>(long_run.allocations - short_run.allocations) /
         static_cast<double>(long_run.completions - short_run.completions);
}

struct Budget {
  const char* scheme;
  double kv_sp, kv_mp10, tpcc;
};

const Budget kBudgets[] = {
    {"blocking", 7.40, 9.10, 18.17},
    {"speculation", 7.40, 8.96, 20.69},
    {"locking", 7.40, 8.53, 21.16},
    {"occ", 7.40, 14.00, 21.81},
    {"mvcc", 7.40, 14.25, 21.60},
};

/// Checks all three cells of one scheme's row.
void ExpectBudget(const Budget& b) {
  EXPECT_NEAR(BlocksPerTxn(Workload::kKvSp, b.scheme), b.kv_sp, 0.01) << "KV SP-only";
  EXPECT_NEAR(BlocksPerTxn(Workload::kKvMp10, b.scheme), b.kv_mp10, 0.01) << "KV 10% MP";
  EXPECT_NEAR(BlocksPerTxn(Workload::kTpcc, b.scheme), b.tpcc, 0.01) << "TPC-C";
}

/// KV at 10% MP with one backup per partition, one budget per scheme.
struct ReplicatedBudget {
  const char* scheme;
  double kv_mp10_repl2;
};

const ReplicatedBudget kReplicatedBudgets[] = {
    {"blocking", 14.45},
    {"speculation", 14.32},
    {"locking", 13.83},
    {"occ", 19.37},
    {"mvcc", 19.69},
};

TEST(AllocBudget, Blocking) { ExpectBudget(kBudgets[0]); }
TEST(AllocBudget, Speculation) { ExpectBudget(kBudgets[1]); }
TEST(AllocBudget, Locking) { ExpectBudget(kBudgets[2]); }
TEST(AllocBudget, Occ) { ExpectBudget(kBudgets[3]); }
TEST(AllocBudget, Mvcc) { ExpectBudget(kBudgets[4]); }

TEST(AllocBudget, KvMp10Replicated) {
  for (const ReplicatedBudget& b : kReplicatedBudgets) {
    EXPECT_NEAR(BlocksPerTxn(Workload::kKvMp10Repl2, b.scheme), b.kv_mp10_repl2, 0.01) << b.scheme;
  }
}

}  // namespace
}  // namespace partdb

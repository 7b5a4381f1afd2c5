// DrawKvTxn sizes each key list once: the args object, the outer vector of
// per-partition lists, and one block per non-empty list. This executable
// replaces the global operator new with a counting one
// (tests/counting_new.h) and counts the blocks of one draw on this thread.
#include "common/rng.h"
#include "counting_new.h"
#include "gtest/gtest.h"
#include "kv/kv_procedures.h"
#include "kv/kv_workload.h"

namespace partdb {
namespace {

/// Heap blocks one DrawKvTxn allocates at `mp_fraction` (0 or 1) under the
/// default mix: 2 partitions, 12 keys.
uint64_t DrawAllocations(double mp_fraction) {
  KvWorkloadOptions config;
  config.mp_fraction = mp_fraction;
  Rng rng(1);
  g_allocations.store(0);
  g_counting.store(true);
  PayloadPtr args = DrawKvTxn(config, 5, rng);
  g_counting.store(false);
  const auto& kv = PayloadCast<KvArgs>(*args);
  EXPECT_EQ(kv.keys.size(), 2u);
  EXPECT_EQ(kv.keys[0].size() + kv.keys[1].size(), 12u);
  return g_allocations.load();
}

TEST(KvDrawAlloc, SinglePartitionDrawAllocatesThreeBlocks) { EXPECT_EQ(DrawAllocations(0.0), 3u); }

TEST(KvDrawAlloc, TwoPartitionDrawAllocatesFourBlocks) { EXPECT_EQ(DrawAllocations(1.0), 4u); }

}  // namespace
}  // namespace partdb

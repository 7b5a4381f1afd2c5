// A DrawKvTxn of the paper mix is one heap block: the args object, whose
// per-partition key lists are inline. This executable replaces the global
// operator new with a counting one (tests/counting_new.h) and counts the
// blocks of one draw on this thread.
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

TEST(KvDrawAlloc, SinglePartitionDrawAllocatesOneBlock) { EXPECT_EQ(DrawAllocations(0.0), 1u); }

TEST(KvDrawAlloc, TwoPartitionDrawAllocatesOneBlock) { EXPECT_EQ(DrawAllocations(1.0), 1u); }

}  // namespace
}  // namespace partdb

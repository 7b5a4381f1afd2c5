// Lock manager tests: grant/queue semantics, shared/exclusive compatibility,
// upgrades, FIFO fairness, release cascades, and waits-for cycle detection.
#include "engine/lock_manager.h"

#include "gtest/gtest.h"

namespace partdb {
namespace {

class LockManagerTest : public ::testing::Test {
 protected:
  LockManager lm;
  WorkMeter m;
  LockManager::Owner a, b, c, d;
  std::vector<LockManager::Granted> granted;
};

TEST_F(LockManagerTest, ExclusiveGrantAndConflict) {
  EXPECT_TRUE(lm.Acquire(100, &a, true, &m));
  EXPECT_FALSE(lm.Acquire(100, &b, true, &m));
  EXPECT_TRUE(lm.IsWaiting(&b));
  EXPECT_EQ(lm.WaitingOn(&b), 100u);
  lm.ReleaseAll(&a, &m, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].owner, &b);
  EXPECT_FALSE(lm.IsWaiting(&b));
}

TEST_F(LockManagerTest, SharedLocksCoexist) {
  EXPECT_TRUE(lm.Acquire(100, &a, false, &m));
  EXPECT_TRUE(lm.Acquire(100, &b, false, &m));
  EXPECT_FALSE(lm.Acquire(100, &c, true, &m));
  lm.ReleaseAll(&a, &m, &granted);
  EXPECT_TRUE(granted.empty());  // b still holds S
  lm.ReleaseAll(&b, &m, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].owner, &c);
  EXPECT_TRUE(granted[0].exclusive);
}

TEST_F(LockManagerTest, SharedBehindQueuedExclusiveWaits) {
  // FIFO fairness: an S request behind a queued X must wait.
  EXPECT_TRUE(lm.Acquire(100, &a, false, &m));
  EXPECT_FALSE(lm.Acquire(100, &b, true, &m));
  EXPECT_FALSE(lm.Acquire(100, &c, false, &m));
  lm.ReleaseAll(&a, &m, &granted);
  ASSERT_EQ(granted.size(), 1u);  // only b (X) granted
  EXPECT_EQ(granted[0].owner, &b);
  granted.clear();
  lm.ReleaseAll(&b, &m, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].owner, &c);
}

TEST_F(LockManagerTest, SharedBatchGrant) {
  EXPECT_TRUE(lm.Acquire(100, &a, true, &m));
  EXPECT_FALSE(lm.Acquire(100, &b, false, &m));
  EXPECT_FALSE(lm.Acquire(100, &c, false, &m));
  lm.ReleaseAll(&a, &m, &granted);
  ASSERT_EQ(granted.size(), 2u);  // both S waiters granted together
}

TEST_F(LockManagerTest, ReacquireHeldLockIsNoop) {
  EXPECT_TRUE(lm.Acquire(100, &a, true, &m));
  EXPECT_TRUE(lm.Acquire(100, &a, true, &m));
  EXPECT_TRUE(lm.Acquire(100, &a, false, &m));  // weaker re-acquire
  EXPECT_EQ(lm.HeldCount(&a), 1u);
}

TEST_F(LockManagerTest, UpgradeSoleHolder) {
  EXPECT_TRUE(lm.Acquire(100, &a, false, &m));
  EXPECT_TRUE(lm.Acquire(100, &a, true, &m));  // S -> X immediately
  EXPECT_FALSE(lm.Acquire(100, &b, false, &m));
}

TEST_F(LockManagerTest, UpgradeWaitsForOtherReaders) {
  EXPECT_TRUE(lm.Acquire(100, &a, false, &m));
  EXPECT_TRUE(lm.Acquire(100, &b, false, &m));
  EXPECT_FALSE(lm.Acquire(100, &a, true, &m));  // blocked upgrade
  EXPECT_TRUE(lm.IsWaiting(&a));
  lm.ReleaseAll(&b, &m, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].owner, &a);
  EXPECT_TRUE(granted[0].exclusive);
}

TEST_F(LockManagerTest, EmptyReflectsState) {
  EXPECT_TRUE(lm.Empty());
  lm.Acquire(100, &a, true, &m);
  EXPECT_FALSE(lm.Empty());
  lm.ReleaseAll(&a, &m, &granted);
  EXPECT_TRUE(lm.Empty());
}

TEST_F(LockManagerTest, CancelWaitingRequestOnRelease) {
  EXPECT_TRUE(lm.Acquire(100, &a, true, &m));
  EXPECT_FALSE(lm.Acquire(100, &b, true, &m));
  EXPECT_FALSE(lm.Acquire(100, &c, true, &m));
  // b gives up (e.g. deadlock victim) while still waiting.
  lm.ReleaseAll(&b, &m, &granted);
  EXPECT_TRUE(granted.empty());  // a still holds
  lm.ReleaseAll(&a, &m, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].owner, &c);  // b skipped
}

TEST_F(LockManagerTest, UpgradeJumpsQueuedExclusiveWaiter) {
  EXPECT_TRUE(lm.Acquire(100, &a, false, &m));
  EXPECT_TRUE(lm.Acquire(100, &b, false, &m));
  EXPECT_FALSE(lm.Acquire(100, &c, true, &m));  // c queues X
  EXPECT_FALSE(lm.Acquire(100, &a, true, &m));  // a's upgrade goes ahead of c
  lm.ReleaseAll(&b, &m, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].owner, &a);
  EXPECT_TRUE(granted[0].exclusive);
  EXPECT_TRUE(lm.IsWaiting(&c));
  granted.clear();
  lm.ReleaseAll(&a, &m, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].owner, &c);
}

TEST_F(LockManagerTest, CancelWaiterFromMiddleOfQueue) {
  EXPECT_TRUE(lm.Acquire(100, &a, true, &m));
  EXPECT_FALSE(lm.Acquire(100, &b, true, &m));
  EXPECT_FALSE(lm.Acquire(100, &c, true, &m));
  EXPECT_FALSE(lm.Acquire(100, &d, true, &m));
  lm.ReleaseAll(&c, &m, &granted);  // c leaves from between b and d
  EXPECT_TRUE(granted.empty());
  EXPECT_FALSE(lm.IsWaiting(&c));
  lm.ReleaseAll(&a, &m, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].owner, &b);
  granted.clear();
  lm.ReleaseAll(&b, &m, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].owner, &d);
}

TEST_F(LockManagerTest, OwnerReacquiresAfterReleaseAll) {
  EXPECT_TRUE(lm.Acquire(100, &a, true, &m));
  lm.ReleaseAll(&a, &m, &granted);
  EXPECT_TRUE(lm.Empty());
  EXPECT_TRUE(lm.Acquire(200, &a, false, &m));
  EXPECT_EQ(lm.HeldCount(&a), 1u);
}

TEST_F(LockManagerTest, TwoOwnerCycleDetected) {
  EXPECT_TRUE(lm.Acquire(1, &a, true, &m));
  EXPECT_TRUE(lm.Acquire(2, &b, true, &m));
  EXPECT_FALSE(lm.Acquire(2, &a, true, &m));  // a waits on b
  std::vector<LockManager::Owner*> cycle;
  EXPECT_FALSE(lm.FindCycle(&a, &cycle));  // no cycle yet
  EXPECT_FALSE(lm.Acquire(1, &b, true, &m));  // b waits on a: cycle
  EXPECT_TRUE(lm.FindCycle(&b, &cycle));
  EXPECT_EQ(cycle.size(), 2u);
}

TEST_F(LockManagerTest, ThreeOwnerCycleDetected) {
  EXPECT_TRUE(lm.Acquire(1, &a, true, &m));
  EXPECT_TRUE(lm.Acquire(2, &b, true, &m));
  EXPECT_TRUE(lm.Acquire(3, &c, true, &m));
  EXPECT_FALSE(lm.Acquire(2, &a, true, &m));
  EXPECT_FALSE(lm.Acquire(3, &b, true, &m));
  EXPECT_FALSE(lm.Acquire(1, &c, true, &m));
  std::vector<LockManager::Owner*> cycle;
  EXPECT_TRUE(lm.FindCycle(&c, &cycle));
  EXPECT_EQ(cycle.size(), 3u);
}

TEST_F(LockManagerTest, NoFalseCycleOnChains) {
  // a -> b -> c is a chain, not a cycle.
  EXPECT_TRUE(lm.Acquire(1, &c, true, &m));
  EXPECT_TRUE(lm.Acquire(2, &b, true, &m));
  EXPECT_FALSE(lm.Acquire(1, &b, true, &m));  // b waits on c
  EXPECT_FALSE(lm.Acquire(2, &a, true, &m));  // a waits on b
  std::vector<LockManager::Owner*> cycle;
  EXPECT_FALSE(lm.FindCycle(&a, &cycle));
  EXPECT_FALSE(lm.FindCycle(&b, &cycle));
}

TEST_F(LockManagerTest, CycleThroughQueuedWaiter) {
  // a holds L1. b queued for L1 (X). c holds L2; c queued behind b on L1
  // would see b as a blocker. Build: c waits on L1 behind b; b waits on L2
  // held by c => cycle b -> c -> (queue ahead) b? Construct directly:
  EXPECT_TRUE(lm.Acquire(1, &a, true, &m));
  EXPECT_TRUE(lm.Acquire(2, &c, true, &m));
  EXPECT_FALSE(lm.Acquire(1, &b, true, &m));   // b waits on a
  EXPECT_FALSE(lm.Acquire(1, &c, true, &m));   // c waits on a AND behind b
  // c's blockers include the queued-ahead b. If b now waits on L2 (held by
  // c), we get cycle c -> b -> c... but b already waits on L1. Instead check
  // the queued-ahead edge exists: kill a, then b holds L1, c still waits.
  lm.ReleaseAll(&a, &m, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].owner, &b);
  EXPECT_TRUE(lm.IsWaiting(&c));
  std::vector<LockManager::Owner*> cycle;
  EXPECT_FALSE(lm.FindCycle(&c, &cycle));
}

TEST_F(LockManagerTest, MeterCountsTraffic) {
  WorkMeter meter;
  lm.Acquire(1, &a, true, &meter);
  lm.Acquire(2, &a, true, &meter);
  EXPECT_EQ(meter.lock_acquires, 2u);
  lm.Acquire(1, &b, true, &meter);  // blocks
  EXPECT_EQ(meter.lock_waits, 1u);
  std::vector<LockManager::Granted> g;
  lm.ReleaseAll(&a, &meter, &g);
  EXPECT_EQ(meter.lock_releases, 2u);
  EXPECT_GT(meter.lock_table_ops, 0u);
}

}  // namespace
}  // namespace partdb

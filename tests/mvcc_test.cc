// Direct unit tests of the mvcc scheme (the queue executor's snapshot
// policy): read-only transactions never wait behind a stalled
// multi-partition transaction, snapshot reads observe the committed prefix
// consistently while writers are in flight, conflicting writers queue until
// the decision, disjoint writers overtake them, and no version outlives the
// 2PC window of the transaction that wrote it.
#include <memory>

#include "cc/scheme_registry.h"
#include "fake_partition.h"
#include "gtest/gtest.h"
#include "kv/kv_engine.h"
#include "kv/kv_workload.h"

namespace partdb {
namespace {

constexpr NodeId kClient = 7;
constexpr NodeId kCoord = 99;

// A one-partition KV engine with keys k0..k3 = 0.
std::unique_ptr<KvEngine> MakeEngine(PartitionId pid) {
  auto e = std::make_unique<KvEngine>(pid);
  for (int i = 0; i < 4; ++i) e->store().Put(MicrobenchKey(0, pid, i), EncodeValue(0));
  return e;
}

PayloadPtr SpArgs(PartitionId pid, int slot, bool read_only = false) {
  auto a = std::make_shared<KvArgs>();
  a->keys.resize(pid + 1);
  a->keys[pid].push_back(MicrobenchKey(0, pid, slot));
  a->read_only = read_only;
  return a;
}

PayloadPtr MpArgs(PartitionId pid, std::initializer_list<int> slots) {
  auto a = std::make_shared<KvArgs>();
  a->keys.resize(pid + 1);
  for (int slot : slots) a->keys[pid].push_back(MicrobenchKey(0, pid, slot));
  return a;
}

FragmentRequest SpFrag(TxnId id, PayloadPtr args, bool can_abort = false) {
  FragmentRequest f;
  f.txn_id = id;
  f.multi_partition = false;
  f.last_round = true;
  f.can_abort = can_abort;
  f.coordinator = kClient;
  f.args = std::move(args);
  return f;
}

FragmentRequest MpFrag(TxnId id, PayloadPtr args, bool last = true, int round = 0) {
  FragmentRequest f;
  f.txn_id = id;
  f.multi_partition = true;
  f.round = round;
  f.last_round = last;
  f.coordinator = kCoord;
  f.args = std::move(args);
  return f;
}

std::unique_ptr<CcScheme> MakeMvcc(FakePartition& part) {
  return CcSchemeRegistry::Global().Make("mvcc", &part);
}

uint64_t ValueOf(FakePartition& part, PartitionId pid, int slot) {
  KvValue v;
  EXPECT_TRUE(static_cast<KvEngine&>(part.engine()).store().Get(MicrobenchKey(0, pid, slot), &v));
  return DecodeValue(v);
}

TEST(MvccScheme, SpFastPathWhenIdle) {
  FakePartition part(0, MakeEngine(0));
  auto cc = MakeMvcc(part);
  cc->OnFragment(SpFrag(1, SpArgs(0, 0)));
  auto resp = part.Bodies<ClientResponse>();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_TRUE(resp[0].committed);
  EXPECT_EQ(ValueOf(part, 0, 0), 1u);
  EXPECT_TRUE(cc->Idle());
  EXPECT_EQ(part.log.size(), 1u);
  // The fast path involves no version machinery at all.
  EXPECT_EQ(part.metrics().mvcc_snapshot_reads, 0u);
  ASSERT_EQ(part.log.size(), 1u);
}

// The headline property: a read-only transaction arriving while a
// multi-partition transaction is stalled in its 2PC window — on the very
// records the MP wrote — commits immediately against the committed snapshot
// instead of queueing (blocking), executing on dirty state (speculation), or
// waiting for the lock (locking).
TEST(MvccScheme, ReadOnlySpNeverBlocksBehindStalledMp) {
  FakePartition part(0, MakeEngine(0));
  auto cc = MakeMvcc(part);

  cc->OnFragment(MpFrag(100, MpArgs(0, {0})));  // stalled in 2PC: no decision
  EXPECT_EQ(ValueOf(part, 0, 0), 1u);           // dirty pending version
  part.ClearSent();

  cc->OnFragment(SpFrag(101, SpArgs(0, 0, /*read_only=*/true)));
  auto resp = part.Bodies<ClientResponse>();
  ASSERT_EQ(resp.size(), 1u);  // responded immediately — no waiting
  EXPECT_TRUE(resp[0].committed);
  // It read the committed snapshot (0), not the MP's pending write (1).
  EXPECT_EQ(PayloadCast<KvResult>(*resp[0].result).values[0], 0u);
  EXPECT_EQ(part.metrics().mvcc_snapshot_reads, 1u);
  EXPECT_EQ(part.metrics().mvcc_conflict_waits, 0u);
  // The pending version was reinstalled after the snapshot read.
  EXPECT_EQ(ValueOf(part, 0, 0), 1u);

  // Commit-log order matches the serialization order: the snapshot reader
  // serializes before the still-pending MP.
  cc->OnDecision(DecisionMessage{100, 0, true});
  ASSERT_EQ(part.log.size(), 2u);
  EXPECT_EQ(part.log[0].txn_id, 101u);
  EXPECT_EQ(part.log[1].txn_id, 100u);
  EXPECT_TRUE(cc->Idle());
}

TEST(MvccScheme, NonOverlappingWriterRunsDirectlyDuringMpStall) {
  FakePartition part(0, MakeEngine(0));
  auto cc = MakeMvcc(part);
  cc->OnFragment(MpFrag(100, MpArgs(0, {0})));
  part.ClearSent();

  cc->OnFragment(SpFrag(101, SpArgs(0, 1)));  // disjoint key: fast path
  auto resp = part.Bodies<ClientResponse>();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_TRUE(resp[0].committed);
  EXPECT_EQ(ValueOf(part, 0, 1), 1u);
  EXPECT_EQ(part.metrics().mvcc_snapshot_reads, 0u);  // pending versions invisible
  cc->OnDecision(DecisionMessage{100, 0, true});
  EXPECT_TRUE(cc->Idle());
}

TEST(MvccScheme, ConflictingWriterWaitsForDecision) {
  FakePartition part(0, MakeEngine(0));
  auto cc = MakeMvcc(part);
  cc->OnFragment(MpFrag(100, MpArgs(0, {0})));
  part.ClearSent();

  cc->OnFragment(SpFrag(101, SpArgs(0, 0)));  // write into the MP's access set
  EXPECT_TRUE(part.Bodies<ClientResponse>().empty());
  EXPECT_EQ(part.metrics().mvcc_conflict_waits, 1u);
  EXPECT_EQ(ValueOf(part, 0, 0), 1u);  // only the MP's pending write

  cc->OnDecision(DecisionMessage{100, 0, true});
  auto resp = part.Bodies<ClientResponse>();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_TRUE(resp[0].committed);
  // The writer observed the MP's committed write.
  EXPECT_EQ(PayloadCast<KvResult>(*resp[0].result).values[0], 1u);
  EXPECT_EQ(ValueOf(part, 0, 0), 2u);
  ASSERT_EQ(part.log.size(), 2u);
  EXPECT_EQ(part.log[0].txn_id, 100u);
  EXPECT_EQ(part.log[1].txn_id, 101u);
  EXPECT_TRUE(cc->Idle());
}

// A multi-key MP is pending; a read-only transaction spanning all its keys
// must see the snapshot of every record — the committed prefix, not a mix of
// committed and pending versions.
TEST(MvccScheme, SnapshotReadIsConsistentAcrossMultiKeyMp) {
  FakePartition part(0, MakeEngine(0));
  auto cc = MakeMvcc(part);

  // Seed slot1 with a different committed value so torn reads are visible.
  cc->OnFragment(SpFrag(1, SpArgs(0, 1)));  // slot1: 0 -> 1
  part.ClearSent();

  cc->OnFragment(MpFrag(100, MpArgs(0, {0, 1})));  // pending: slot0->1, slot1->2
  part.ClearSent();

  auto ro = std::make_shared<KvArgs>();
  ro->keys.resize(1);
  ro->keys[0] = {MicrobenchKey(0, 0, 0), MicrobenchKey(0, 0, 1)};
  ro->read_only = true;
  cc->OnFragment(SpFrag(101, ro));
  auto resp = part.Bodies<ClientResponse>();
  ASSERT_EQ(resp.size(), 1u);
  const auto& values = PayloadCast<KvResult>(*resp[0].result).values;
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], 0u);  // committed snapshot, both keys
  EXPECT_EQ(values[1], 1u);
  // The pending versions were reinstalled intact.
  EXPECT_EQ(ValueOf(part, 0, 0), 1u);
  EXPECT_EQ(ValueOf(part, 0, 1), 2u);

  part.ClearSent();
  cc->OnDecision(DecisionMessage{100, 0, true});
  // After the commit a fresh reader sees the MP's writes.
  cc->OnFragment(SpFrag(102, ro));
  resp = part.Bodies<ClientResponse>();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(PayloadCast<KvResult>(*resp[0].result).values[0], 1u);
  EXPECT_EQ(PayloadCast<KvResult>(*resp[0].result).values[1], 2u);
  EXPECT_TRUE(cc->Idle());
}

TEST(MvccScheme, AbortRollsBackVersionsAndServesWaiters) {
  FakePartition part(0, MakeEngine(0));
  auto cc = MakeMvcc(part);
  cc->OnFragment(MpFrag(100, MpArgs(0, {0})));
  cc->OnFragment(SpFrag(101, SpArgs(0, 0)));  // queued writer
  part.ClearSent();

  cc->OnDecision(DecisionMessage{100, 0, false});
  // Pending versions unlinked; the waiter then ran on the clean state.
  auto resp = part.Bodies<ClientResponse>();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(PayloadCast<KvResult>(*resp[0].result).values[0], 0u);  // MP write gone
  EXPECT_EQ(ValueOf(part, 0, 0), 1u);  // only the SP's increment
  ASSERT_EQ(part.log.size(), 1u);      // the aborted MP is not in the log
  EXPECT_EQ(part.log[0].txn_id, 101u);
  EXPECT_TRUE(cc->Idle());
}

TEST(MvccScheme, QueuedMpsRunInFifoOrder) {
  FakePartition part(0, MakeEngine(0));
  auto cc = MakeMvcc(part);
  cc->OnFragment(MpFrag(100, MpArgs(0, {0})));
  part.ClearSent();
  cc->OnFragment(MpFrag(102, MpArgs(0, {0})));  // queues behind the pending MP
  EXPECT_TRUE(part.sent.empty());               // no vote until it runs
  EXPECT_EQ(ValueOf(part, 0, 0), 1u);

  cc->OnDecision(DecisionMessage{100, 0, true});
  auto votes = part.Bodies<FragmentResponse>();
  ASSERT_EQ(votes.size(), 1u);  // 102 started after 100's decision
  EXPECT_EQ(votes[0].txn_id, 102u);
  EXPECT_EQ(votes[0].vote, Vote::kCommit);
  EXPECT_EQ(ValueOf(part, 0, 0), 2u);

  cc->OnDecision(DecisionMessage{102, 0, true});
  EXPECT_TRUE(cc->Idle());
  ASSERT_EQ(part.log.size(), 2u);
  EXPECT_EQ(part.log[0].txn_id, 100u);
  EXPECT_EQ(part.log[1].txn_id, 102u);
}

// An SP disjoint from the stalled MP's accesses runs at once even when a
// conflicting writer and another MP are already queued: it serializes before
// all three, and the queue drains in order at the decision.
TEST(MvccScheme, NonConflictingSpOvertakesQueuedWaiters) {
  FakePartition part(0, MakeEngine(0));
  auto cc = MakeMvcc(part);
  cc->OnFragment(MpFrag(100, MpArgs(0, {0})));
  cc->OnFragment(SpFrag(101, SpArgs(0, 0)));    // writes into the MP's accesses
  cc->OnFragment(MpFrag(102, MpArgs(0, {0})));  // queues behind the pending MP
  part.ClearSent();

  cc->OnFragment(SpFrag(103, SpArgs(0, 1)));  // disjoint key
  auto resp = part.Bodies<ClientResponse>();
  ASSERT_EQ(resp.size(), 1u);  // replied at once
  EXPECT_EQ(resp[0].txn_id, 103u);
  EXPECT_TRUE(resp[0].committed);
  EXPECT_EQ(ValueOf(part, 0, 1), 1u);
  ASSERT_EQ(part.log.size(), 1u);
  EXPECT_EQ(part.log[0].txn_id, 103u);
  EXPECT_EQ(part.metrics().mvcc_conflict_waits, 1u);  // only 101 waited
  part.ClearSent();

  cc->OnDecision(DecisionMessage{100, 0, true});
  resp = part.Bodies<ClientResponse>();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].txn_id, 101u);
  auto votes = part.Bodies<FragmentResponse>();
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_EQ(votes[0].txn_id, 102u);

  cc->OnDecision(DecisionMessage{102, 0, true});
  EXPECT_TRUE(cc->Idle());
  ASSERT_EQ(part.log.size(), 4u);
  EXPECT_EQ(part.log[0].txn_id, 103u);
  EXPECT_EQ(part.log[1].txn_id, 100u);
  EXPECT_EQ(part.log[2].txn_id, 101u);
  EXPECT_EQ(part.log[3].txn_id, 102u);
  EXPECT_EQ(ValueOf(part, 0, 0), 3u);
}

TEST(MvccScheme, MultiRoundMpServesSnapshotReadsBetweenRounds) {
  FakePartition part(0, MakeEngine(0));
  auto cc = MakeMvcc(part);

  auto args = std::make_shared<KvArgs>();
  args->keys.resize(1);
  args->keys[0].push_back(MicrobenchKey(0, 0, 0));
  args->rounds = 2;
  cc->OnFragment(MpFrag(100, args, /*last=*/false, /*round=*/0));
  part.ClearSent();

  // Between rounds the MP has declared (exclusive) access to slot0 but not
  // written yet; a read-only transaction still commits immediately.
  cc->OnFragment(SpFrag(101, SpArgs(0, 0, /*read_only=*/true)));
  auto resp = part.Bodies<ClientResponse>();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(PayloadCast<KvResult>(*resp[0].result).values[0], 0u);
  part.ClearSent();

  // Round 1 (the write round) arrives with the coordinator-echoed input.
  auto input = std::make_shared<KvRoundInput>();
  input->values.push_back({0});
  FragmentRequest r1 = MpFrag(100, args, /*last=*/true, /*round=*/1);
  r1.round_input = input;
  cc->OnFragment(std::move(r1));
  EXPECT_EQ(ValueOf(part, 0, 0), 1u);

  cc->OnDecision(DecisionMessage{100, 0, true});
  EXPECT_TRUE(cc->Idle());
  ASSERT_EQ(part.log.size(), 2u);
  EXPECT_EQ(part.log[0].txn_id, 101u);
  EXPECT_EQ(part.log[1].txn_id, 100u);
  ASSERT_EQ(part.log[1].round_inputs.size(), 2u);  // both rounds recorded
}

// GC invariant: no version outlives the 2PC window of the transaction that
// wrote it. Every window's snapshot read must return exactly the MPs
// committed before it: a retained older version would surface under the
// lift, and a chain that grew across windows would not reinstall cleanly.
TEST(MvccScheme, VersionChainGcBoundsMemoryAcrossLongWindow) {
  FakePartition part(0, MakeEngine(0));
  auto cc = MakeMvcc(part);

  uint64_t committed_mps = 0;
  for (int i = 0; i < 200; ++i) {
    const TxnId id = 100 + static_cast<TxnId>(i);
    cc->OnFragment(MpFrag(id, MpArgs(0, {0, 1, 2})));
    EXPECT_EQ(ValueOf(part, 0, 0), committed_mps + 1);  // this window's pending write
    part.ClearSent();
    cc->OnFragment(SpFrag(10000 + static_cast<TxnId>(i), SpArgs(0, 0, /*read_only=*/true)));
    auto resp = part.Bodies<ClientResponse>();
    ASSERT_EQ(resp.size(), 1u);
    EXPECT_EQ(PayloadCast<KvResult>(*resp[0].result).values[0], committed_mps) << "window " << i;
    // Alternate commit/abort: both ends of a window release the chain.
    const bool commit = i % 2 == 0;
    cc->OnDecision(DecisionMessage{id, 0, commit});
    if (commit) ++committed_mps;
    EXPECT_EQ(ValueOf(part, 0, 0), committed_mps);
  }
  EXPECT_TRUE(cc->Idle());
  EXPECT_EQ(part.metrics().mvcc_snapshot_reads, 200u);
}

TEST(MvccScheme, CommitTimestampAdvancesPerCommit) {
  FakePartition part(0, MakeEngine(0));
  auto cc = MakeMvcc(part);
  cc->OnFragment(SpFrag(1, SpArgs(0, 0)));
  EXPECT_EQ(part.log.size(), 1u);
  cc->OnFragment(MpFrag(100, MpArgs(0, {1})));
  EXPECT_EQ(part.log.size(), 1u);  // pending, not committed
  cc->OnFragment(SpFrag(2, SpArgs(0, 1, /*read_only=*/true)));  // snapshot read
  EXPECT_EQ(part.log.size(), 2u);
  cc->OnDecision(DecisionMessage{100, 0, true});
  EXPECT_EQ(part.log.size(), 3u);
  cc->OnFragment(MpFrag(101, MpArgs(0, {1})));
  cc->OnDecision(DecisionMessage{101, 0, false});  // aborts do not advance it
  EXPECT_EQ(part.log.size(), 3u);
}

TEST(MvccScheme, SelfAbortingSpRollsBackOnFastPath) {
  FakePartition part(0, MakeEngine(0));
  auto cc = MakeMvcc(part);
  auto args = std::make_shared<KvArgs>();
  args->keys.resize(1);
  args->keys[0].push_back(MicrobenchKey(0, 0, 0));
  args->abort_txn = true;
  cc->OnFragment(SpFrag(1, args, /*can_abort=*/true));
  auto resp = part.Bodies<ClientResponse>();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_FALSE(resp[0].committed);
  EXPECT_EQ(ValueOf(part, 0, 0), 0u);
  EXPECT_TRUE(part.log.empty());
  EXPECT_EQ(part.log.size(), 0u);
}

}  // namespace
}  // namespace partdb

// Tests for the OCC scheme (paper §5.7 extension): access-set validation on
// abort spares non-conflicting speculated transactions, while conflicting
// ones cascade exactly as under plain speculation.
#include <memory>

#include "cc/scheme_registry.h"
#include "fake_partition.h"
#include "gtest/gtest.h"
#include "kv/kv_engine.h"
#include "kv/kv_procedures.h"
#include "test_util.h"

namespace partdb {
namespace {

constexpr NodeId kClient = 7;
constexpr NodeId kCoord = 99;

std::unique_ptr<KvEngine> MakeEngine(PartitionId pid) {
  auto e = std::make_unique<KvEngine>(pid);
  for (int i = 0; i < 4; ++i) e->store().Put(MicrobenchKey(0, pid, i), EncodeValue(0));
  return e;
}

PayloadPtr Args(PartitionId pid, std::vector<int> slots) {
  auto a = std::make_shared<KvArgs>();
  a->keys.resize(pid + 1);
  for (int s : slots) a->keys[pid].push_back(MicrobenchKey(0, pid, s));
  return a;
}

FragmentRequest SpFrag(TxnId id, PayloadPtr args) {
  FragmentRequest f;
  f.txn_id = id;
  f.multi_partition = false;
  f.last_round = true;
  f.coordinator = kClient;
  f.args = std::move(args);
  return f;
}

FragmentRequest MpFrag(TxnId id, PayloadPtr args) {
  FragmentRequest f;
  f.txn_id = id;
  f.multi_partition = true;
  f.last_round = true;
  f.coordinator = kCoord;
  f.args = std::move(args);
  return f;
}

uint64_t ValueOf(FakePartition& part, int slot) {
  KvValue v;
  EXPECT_TRUE(
      static_cast<KvEngine&>(part.engine()).store().Get(MicrobenchKey(0, 0, slot), &v));
  return DecodeValue(v);
}

TEST(OccScheme, NonConflictingSurvivorsSkipReexecution) {
  FakePartition part(0, MakeEngine(0));
  auto cc = CcSchemeRegistry::Global().Make("occ", &part);

  cc->OnFragment(MpFrag(100, Args(0, {0})));  // head writes slot0
  cc->OnFragment(SpFrag(101, Args(0, {1})));  // disjoint: survives
  cc->OnFragment(SpFrag(102, Args(0, {2})));  // disjoint: survives
  part.ClearSent();

  cc->OnDecision(DecisionMessage{100, 0, false});  // head aborts
  // Both SPs survive untouched and release their (valid) results.
  EXPECT_EQ(part.metrics().cascading_reexecs, 0u);
  EXPECT_EQ(part.metrics().occ_survivors, 2u);
  auto resp = part.Bodies<ClientResponse>();
  ASSERT_EQ(resp.size(), 2u);
  EXPECT_EQ(ValueOf(part, 0), 0u);  // head undone
  EXPECT_EQ(ValueOf(part, 1), 1u);
  EXPECT_EQ(ValueOf(part, 2), 1u);
  EXPECT_TRUE(cc->Idle());
}

TEST(OccScheme, ConflictingTransactionsStillCascade) {
  FakePartition part(0, MakeEngine(0));
  auto cc = CcSchemeRegistry::Global().Make("occ", &part);

  cc->OnFragment(MpFrag(100, Args(0, {0})));  // head writes slot0
  cc->OnFragment(SpFrag(101, Args(0, {0})));  // conflicts: must re-execute
  cc->OnFragment(SpFrag(102, Args(0, {1})));  // disjoint from head AND 101
  part.ClearSent();

  cc->OnDecision(DecisionMessage{100, 0, false});
  EXPECT_EQ(part.metrics().cascading_reexecs, 1u);  // only 101
  EXPECT_EQ(part.metrics().occ_survivors, 1u);      // only 102
  auto resp = part.Bodies<ClientResponse>();
  ASSERT_EQ(resp.size(), 2u);
  // 101 re-read the clean value 0 (head's write rolled back).
  for (const auto& r : resp) {
    if (r.txn_id == 101) {
      EXPECT_EQ(PayloadCast<KvResult>(*r.result).values[0], 0u);
    }
  }
  EXPECT_EQ(ValueOf(part, 0), 1u);  // only 101's committed increment
  EXPECT_TRUE(cc->Idle());
}

TEST(OccScheme, TransitiveConflictsPropagate) {
  FakePartition part(0, MakeEngine(0));
  auto cc = CcSchemeRegistry::Global().Make("occ", &part);

  cc->OnFragment(MpFrag(100, Args(0, {0})));     // head writes slot0
  cc->OnFragment(SpFrag(101, Args(0, {0, 1})));  // conflicts with head, writes slot1
  cc->OnFragment(SpFrag(102, Args(0, {1, 2})));  // conflicts with 101 transitively
  cc->OnFragment(SpFrag(103, Args(0, {3})));     // independent of all
  part.ClearSent();

  cc->OnDecision(DecisionMessage{100, 0, false});
  EXPECT_EQ(part.metrics().cascading_reexecs, 2u);  // 101 and 102
  EXPECT_EQ(part.metrics().occ_survivors, 1u);      // 103
  EXPECT_TRUE(cc->Idle());
  EXPECT_EQ(ValueOf(part, 0), 1u);
  EXPECT_EQ(ValueOf(part, 1), 2u);  // 101 and 102
  EXPECT_EQ(ValueOf(part, 2), 1u);
  EXPECT_EQ(ValueOf(part, 3), 1u);
}

TEST(OccScheme, SurvivingMpVoteResentWithNewEpochAndDep) {
  FakePartition part(0, MakeEngine(0));
  auto cc = CcSchemeRegistry::Global().Make("occ", &part);

  cc->OnFragment(MpFrag(100, Args(0, {0})));  // head
  cc->OnFragment(MpFrag(102, Args(0, {1})));  // speculated, disjoint, dep=100
  part.ClearSent();

  cc->OnDecision(DecisionMessage{100, 0, false});
  // 102 survived: its vote is resent with the bumped epoch and no dep, and
  // it was NOT re-executed.
  EXPECT_EQ(part.metrics().cascading_reexecs, 0u);
  auto votes = part.Bodies<FragmentResponse>();
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_EQ(votes[0].txn_id, 102u);
  EXPECT_EQ(votes[0].epoch, 1u);
  EXPECT_EQ(votes[0].depends_on, kInvalidTxn);
  EXPECT_EQ(ValueOf(part, 1), 1u);

  cc->OnDecision(DecisionMessage{102, 0, true});
  EXPECT_TRUE(cc->Idle());
}

TEST(OccScheme, CommitPathMatchesSpeculation) {
  FakePartition part(0, MakeEngine(0));
  auto cc = CcSchemeRegistry::Global().Make("occ", &part);
  cc->OnFragment(MpFrag(100, Args(0, {0})));
  cc->OnFragment(SpFrag(101, Args(0, {0})));
  part.ClearSent();
  cc->OnDecision(DecisionMessage{100, 0, true});
  auto resp = part.Bodies<ClientResponse>();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(PayloadCast<KvResult>(*resp[0].result).values[0], 1u);  // saw head's write
  EXPECT_EQ(ValueOf(part, 0), 2u);
  ASSERT_EQ(part.log.size(), 2u);
}

// End-to-end: OCC must satisfy the same serializability contract as the
// other schemes, including under aborts and conflicts.
TEST(OccScheme, EndToEndSerializable) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    KvWorkloadOptions mb;
    mb.num_partitions = 2;
    mb.num_clients = 12;
    mb.mp_fraction = 0.4;
    mb.abort_prob = 0.08;
    mb.conflict_prob = 0.4;
    mb.pin_first_clients = true;

    DbOptions opts = KvDbOptions(mb, "occ", RunMode::kSimulated, seed);
    opts.log_commits = true;
    KvRun run = RunKvClosedLoop(std::move(opts), mb, Micros(20000), Micros(120000));
    EXPECT_GT(run.metrics.completions(), 100u);

    const EngineFactory& factory = run.db->options().engine_factory;
    std::vector<const std::vector<CommitRecord>*> logs;
    for (PartitionId p = 0; p < 2; ++p) {
      EXPECT_EQ(run.db->engine(p).StateHash(),
                ExpectCleanReplayStateHash(factory, p, run.db->commit_log(p)))
          << "seed " << seed << " partition " << p;
      logs.push_back(&run.db->commit_log(p));
    }
    ExpectMpOrderConsistent(logs);
  }
}

}  // namespace
}  // namespace partdb

// The serializability check (db/serializability.h) against broken
// histories: each mutation of a serializable set of commit logs must fail,
// naming the transactions involved, while the logs as committed pass.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/serializability.h"
#include "gtest/gtest.h"
#include "kv/kv_procedures.h"
#include "test_util.h"

namespace partdb {
namespace {

std::string Named(TxnId id) { return "txn " + std::to_string(id); }

/// Expects `error` to contain each of `parts`.
void ExpectMentions(const std::string& error, const std::vector<std::string>& parts) {
  EXPECT_FALSE(error.empty());
  for (const std::string& part : parts) {
    EXPECT_NE(error.find(part), std::string::npos) << '"' << part << "\" not in: " << error;
  }
}

/// Read-update args over key slot 0 of client 0 on each of `partitions`.
std::shared_ptr<KvArgs> Args(int num_partitions, const std::vector<PartitionId>& partitions,
                             int rounds = 1) {
  auto args = std::make_shared<KvArgs>();
  args->keys.resize(num_partitions);
  for (PartitionId p : partitions) args->keys[p].push_back(MicrobenchKey(0, p, 0));
  args->rounds = rounds;
  return args;
}

// T1 on {P0, P2}, T2 on {P0, P1} and T3 on {P1, P2}, each updating the same
// key on every partition it touches. Each partition orders its own pair
// consistently, and no two partitions share more than one transaction, so
// every pairwise comparison of MP commit orders passes — but the union
// T1 -> T2 (P0) -> T3 (P1) -> T1 (P2) is a cycle.
TEST(Serializability, ThreePartitionCycleFailsNamingTheCycle) {
  KvWorkloadOptions mb;
  mb.num_partitions = 3;
  mb.num_clients = 1;
  ProcedureRegistry registry;
  const ProcId proc = registry.Register(KvReadUpdateProcedure(mb));
  const auto mp = [&](TxnId id, std::vector<PartitionId> on) {
    return CommitRecord{id, /*multi_partition=*/true, proc, Args(3, on), {}};
  };
  const CommitRecord t1 = mp(101, {0, 2}), t2 = mp(102, {0, 1}), t3 = mp(103, {1, 2});

  std::vector<std::vector<CommitRecord>> logs = {{t1, t2}, {t2, t3}, {t3, t1}};
  const SerializabilityReport cyclic =
      CheckSerializable(registry, MakeKvEngineFactory(mb), LogsOf(logs));
  ExpectMentions(cyclic.error, {"conflict cycle", Named(101), Named(102), Named(103)});
  EXPECT_TRUE(cyclic.state_hashes.empty());

  // The same transactions with P2 ordered T1 before T3 are serializable.
  logs[2] = {t1, t3};
  const SerializabilityReport ok =
      CheckSerializable(registry, MakeKvEngineFactory(mb), LogsOf(logs));
  EXPECT_EQ(ok.error, "");
  EXPECT_EQ(ok.state_hashes.size(), 3u);
}

/// A closed two-partition simulated database whose logs hold, among others,
/// a single-partition update S on partition 0 followed by a two-round
/// multi-partition update M of the same key on partitions 0 and 1.
class SerializabilityMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    mb_.num_partitions = 2;
    mb_.num_clients = 2;
    DbOptions opts = KvDbOptions(mb_, "blocking", RunMode::kSimulated, 17);
    opts.log_commits = true;
    db_ = Database::Open(std::move(opts));
    auto session = db_->CreateSession();
    const ProcId proc = db_->proc(kKvReadUpdateProc);
    ASSERT_TRUE(session->Execute(proc, Args(2, {1})).committed);
    ASSERT_TRUE(session->Execute(proc, Args(2, {0})).committed);                  // S
    ASSERT_TRUE(session->Execute(proc, Args(2, {0, 1}, /*rounds=*/2)).committed);  // M
    ASSERT_TRUE(session->Execute(proc, Args(2, {0, 1})).committed);
    session.reset();
    db_->Close();
    for (PartitionId p = 0; p < 2; ++p) logs_.push_back(db_->commit_log(p));
    ASSERT_EQ(logs_[0].size(), 3u);
    s_ = logs_[0][0].txn_id;
    m_ = logs_[0][1].txn_id;
    ASSERT_EQ(logs_[0][1].round_inputs.size(), 2u);
    ASSERT_EQ(CheckSerializable(*db_), "");
  }

  /// Index of `id` in partition `p`'s copy of the log.
  size_t At(PartitionId p, TxnId id) const {
    const auto& log = logs_[p];
    const auto it = std::find_if(log.begin(), log.end(),
                                 [id](const CommitRecord& r) { return r.txn_id == id; });
    EXPECT_NE(it, log.end());
    return static_cast<size_t>(it - log.begin());
  }

  std::string Check() const {
    return CheckSerializable(db_->registry(), db_->options().engine_factory, LogsOf(logs_))
        .error;
  }

  KvWorkloadOptions mb_;
  std::unique_ptr<Database> db_;
  TxnId s_ = kInvalidTxn;
  TxnId m_ = kInvalidTxn;
  std::vector<std::vector<CommitRecord>> logs_;
};

TEST_F(SerializabilityMutation, TamperedRoundInputFailsNamingTheTransaction) {
  CommitRecord& rec = logs_[1][At(1, m_)];
  auto tampered = std::make_shared<KvRoundInput>(PayloadCast<KvRoundInput>(*rec.round_inputs[1]));
  tampered->values[1][0] += 1;
  rec.round_inputs[1] = tampered;
  ExpectMentions(Check(), {Named(m_) + " round 1 input", "partition 1"});
}

TEST_F(SerializabilityMutation, SwappedConflictingPairFailsNamingBoth) {
  std::swap(logs_[0][At(0, s_)], logs_[0][At(0, m_)]);
  ExpectMentions(Check(), {Named(m_) + " round 1 input", "before " + Named(s_)});
}

TEST_F(SerializabilityMutation, DroppedMpRecordFailsNamingTheTransaction) {
  logs_[1].erase(logs_[1].begin() + static_cast<std::ptrdiff_t>(At(1, m_)));
  ExpectMentions(Check(), {"multi-partition " + Named(m_) + " is missing", "partition 1"});
}

}  // namespace
}  // namespace partdb

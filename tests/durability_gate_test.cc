// The one durability gate under group commit, for every scheme: a partition
// holds each reply until one count of acks (its backups plus its local log)
// is complete, and a multi-partition commit's 2PC coordinator (the
// coordinator, or the session under locking) replies only after a
// DurableNotice from every participant.
//
// A writer counts a batch's records in `reported` before it sends the
// LogDurable that releases them, so once a reply is back the writers have
// reported at least every record committed so far. With one transaction in
// flight at a time each partition closes its batch as soon as it goes idle,
// so a reply waits for one write+fsync, not the window.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "gtest/gtest.h"
#include "kv/kv_procedures.h"
#include "test_util.h"

namespace partdb {
namespace {

std::string MakeTempDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "partdb_gate_" + tag + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

KvWorkloadOptions TwoPartitions(double mp_fraction) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 1;
  mb.keys_per_txn = 4;
  mb.mp_fraction = mp_fraction;
  mb.mp_rounds = 2;  // general transactions: logged round inputs
  return mb;
}

DbOptions GroupCommitDb(const KvWorkloadOptions& mb, const char* scheme, const std::string& dir,
                        uint32_t window_us) {
  DbOptions opts = KvDbOptions(mb, scheme, RunMode::kParallel, 17);
  opts.log_commits = true;
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  opts.group_commit_window_us = window_us;
  return opts;
}

std::shared_ptr<KvArgs> SpArgs(const KvWorkloadOptions& mb, PartitionId p) {
  auto args = std::make_shared<KvArgs>();
  args->keys.resize(mb.num_partitions);
  for (int i = 0; i < mb.keys_per_txn; ++i) args->keys[p].push_back(MicrobenchKey(0, p, i));
  return args;
}

std::shared_ptr<KvArgs> MpArgs(const KvWorkloadOptions& mb) {
  auto args = std::make_shared<KvArgs>();
  args->keys.resize(mb.num_partitions);
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    for (int i = 0; i < mb.keys_per_txn / mb.num_partitions; ++i) {
      args->keys[p].push_back(MicrobenchKey(0, p, i));
    }
  }
  return args;
}

/// Executes one transaction and returns how long Execute blocked.
std::chrono::steady_clock::duration TimedExecute(Session& session, ProcId proc, PayloadPtr args,
                                                 bool* committed) {
  const auto start = std::chrono::steady_clock::now();
  *committed = session.Execute(proc, std::move(args)).committed;
  return std::chrono::steady_clock::now() - start;
}

/// Records a committed KV transaction logs: one per participant.
uint64_t Participants(const Payload& args) {
  uint64_t n = 0;
  for (const auto& keys : static_cast<const KvArgs&>(args).keys) n += keys.empty() ? 0 : 1;
  return n;
}

/// Records the log writers have reported durable to their partitions.
uint64_t Reported(const Database& db) { return db.Stats().durability.deferred_completions; }

class DurabilityGate : public ::testing::TestWithParam<const char*> {};

// Single-partition commits exercise the partition's log ack; multi-partition
// ones exercise the coordinator's (or, under locking, the session's) wait
// for every participant's notice. The SP cases run first and stop the test
// on failure, so a dropped log ack fails here instead of stranding an MP
// reply.
//
// The window is long, so a lone reply that waited for it shows: each must
// return in under half of it, its partitions having closed their batches.
TEST_P(DurabilityGate, GroupCommitHoldsEveryReply) {
  constexpr uint32_t kWindowUs = 200000;
  const auto half_window = std::chrono::microseconds(kWindowUs / 2);
  const KvWorkloadOptions mb = TwoPartitions(0.0);
  const std::string dir = MakeTempDir(std::string("hold_") + GetParam());
  auto db = Database::Open(GroupCommitDb(mb, GetParam(), dir, kWindowUs));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  uint64_t committed_records = 0;
  {
    auto session = db->CreateSession();
    for (int i = 0; i < 4; ++i) {
      bool committed = false;
      const auto took = TimedExecute(*session, proc, SpArgs(mb, i % 2), &committed);
      ASSERT_TRUE(committed);
      committed_records += 1;
      ASSERT_GE(Reported(*db), committed_records)
          << "single-partition reply " << i << " left before its log ack";
      ASSERT_LT(took, half_window) << "single-partition reply " << i << " waited for the window";
    }
    for (int i = 0; i < 3; ++i) {
      bool committed = false;
      const auto took = TimedExecute(*session, proc, MpArgs(mb), &committed);
      ASSERT_TRUE(committed);
      committed_records += static_cast<uint64_t>(mb.num_partitions);
      ASSERT_GE(Reported(*db), committed_records)
          << "multi-partition reply " << i << " left before every participant's notice";
      ASSERT_LT(took, half_window) << "multi-partition reply " << i << " waited for the window";
    }
  }
  db->Close();
  // Every record was reported to its holding partition, and nothing else.
  const DurabilityStats stats = db->Stats().durability;
  EXPECT_EQ(stats.records, 4u + 3u * 2u);
  EXPECT_EQ(stats.deferred_completions, stats.records);
  db.reset();
  std::filesystem::remove_all(dir);
}

// Replication and group commit together: each single-partition reply counts
// one ack per backup plus the log's, each vote the backups' alone, each
// decided MP record the log's alone. Replies still wait for the log, the
// backups converge on the primaries, and a restart replays every record.
TEST_P(DurabilityGate, BackupsAndLogShareOneHold) {
  constexpr uint32_t kWindowUs = 2000;
  constexpr int kTxns = 30;
  const KvWorkloadOptions mb = TwoPartitions(0.3);
  const std::string dir = MakeTempDir(std::string("repl_") + GetParam());
  DbOptions opts = GroupCommitDb(mb, GetParam(), dir, kWindowUs);
  opts.replication = 2;
  opts.backups_execute = true;
  auto db = Database::Open(std::move(opts));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  {
    auto session = db->CreateSession();
    Rng rng(23);
    uint64_t committed_records = 0;
    for (int i = 0; i < kTxns; ++i) {
      const PayloadPtr args = DrawKvTxn(mb, 0, rng);
      committed_records += Participants(*args);
      ASSERT_TRUE(session->Execute(proc, args).committed);
      ASSERT_GE(Reported(*db), committed_records) << "reply " << i << " left before its log ack";
    }
  }
  db->Close();

  uint64_t records = 0;
  std::vector<uint64_t> live_hash;
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    records += db->cluster().commit_log(p).size();
    live_hash.push_back(db->cluster().engine(p).StateHash());
    EXPECT_EQ(db->cluster().backup_engine(p, 0).StateHash(), live_hash.back())
        << "backup of partition " << p << " diverged (" << GetParam() << ")";
  }
  EXPECT_GE(records, static_cast<uint64_t>(kTxns));
  db.reset();

  auto db2 = Database::Open(GroupCommitDb(mb, GetParam(), dir, kWindowUs));
  const RecoveryReport& rep = db2->recovery_report();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.replayed, records);
  EXPECT_EQ(rep.replay_aborts, 0u);
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    EXPECT_EQ(db2->cluster().engine(p).StateHash(), live_hash[static_cast<size_t>(p)])
        << "partition " << p << " recovered state diverged (" << GetParam() << ")";
  }
  db2.reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Schemes, DurabilityGate,
                         ::testing::Values("blocking", "speculation", "locking", "occ", "mvcc"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace partdb

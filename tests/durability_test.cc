// Durability tier end-to-end: crash-restart-verify for every scheme (KV and
// TPC-C), checkpoint + log-truncation round trips, torn-tail tolerance vs
// mid-file corruption rejection, group-commit acked-subset guarantee, the
// crc and the in-place record encoder against their references, the log
// writer's edge-only wake and batch cadence, and the log-writer counters.
//
// The central invariant (kill-and-recover): a test crashes every partition's
// log (PartitionLog::Crash) after setting its own flag, and every transaction
// whose completion callback observed the flag unset must be in the recovered
// state, while none submitted after the logs crashed may be. The recovered
// state must equal a serial replay of exactly the recovered commit prefix —
// CheckSerializable, the same check the live schemes pass.
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "durability/command_log.h"
#include "durability/log_format.h"
#include "durability/recovery.h"
#include "gtest/gtest.h"
#include "kv/kv_engine.h"
#include "kv/kv_procedures.h"
#include "test_util.h"
#include "tpcc/tpcc_consistency.h"
#include "tpcc/tpcc_procedures.h"

namespace partdb {
namespace {

using tpcc::CheckConsistency;
using tpcc::DrawTpccTxn;
using tpcc::TpccDraw;
using tpcc::TpccEngine;
using tpcc::TpccProcName;
using tpcc::TpccScale;
using tpcc::TpccWorkloadConfig;

std::string MakeTempDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "partdb_dur_" + tag + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A test's crash of every partition's log: after `crash_after` durably
/// acked completions, the thread that counts the last one sets `crashed`,
/// then calls PartitionLog::Crash on every partition's log, then sets
/// `all_crashed`. A completion that saw `crashed` unset was durable: a
/// dropped record's report leaves only after its log's Crash call, which
/// follows the store.
struct LogCrash {
  Database* db = nullptr;
  int num_partitions = 0;
  uint64_t crash_after = 0;
  std::atomic<uint64_t> acked{0};
  std::atomic<bool> crashed{false};
  std::atomic<bool> all_crashed{false};

  void CountDurablyAcked() {
    if (acked.fetch_add(1) + 1 != crash_after) return;
    crashed.store(true);
    for (PartitionId p = 0; p < num_partitions; ++p) db->partition_log(p).Crash();
    all_crashed.store(true);
  }
};

/// Submits one transaction and blocks for its completion, reporting whether
/// it committed AND its completion ran before the test crashed the logs —
/// i.e. whether the client was entitled to consider it durable.
struct AckedOutcome {
  TxnId txn_id = kInvalidTxn;
  bool committed = false;
  bool durably_acked = false;
};

AckedOutcome SubmitAndAwait(Session& session, const std::atomic<bool>& crashed, ProcId proc,
                            PayloadPtr args) {
  auto state = std::make_shared<std::promise<std::pair<bool, bool>>>();
  std::future<std::pair<bool, bool>> fut = state->get_future();
  const SubmitResult sr =
      session.Submit(proc, std::move(args), [state, &crashed](const TxnResult& r) {
        state->set_value({r.committed, crashed.load()});
      });
  AckedOutcome out;
  EXPECT_TRUE(sr.accepted);
  if (!sr.accepted) return out;
  const auto [committed, crashed_at_cb] = fut.get();
  out.txn_id = sr.txn_id;
  out.committed = committed;
  out.durably_acked = committed && !crashed_at_cb;
  return out;
}

/// Appends the first bytes of a framed record to each partition's newest
/// segment under `dir`: the torn tail a crash in the middle of a write
/// leaves behind.
void TearNewestSegments(const std::string& dir, int num_partitions) {
  LogRecord rec;
  rec.commit_seq = 1;
  rec.txn_id = 1;
  std::string framed;
  EncodeLogRecord(rec, &framed);
  for (PartitionId p = 0; p < num_partitions; ++p) {
    uint64_t newest = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      LogFileName f;
      if (LogFileName::Parse(entry.path().filename().string(), &f) && f.partition == p &&
          !f.checkpoint && f.index > newest) {
        newest = f.index;
      }
    }
    std::ofstream out(PartitionLog::SegmentPath(dir, p, newest),
                      std::ios::binary | std::ios::app);
    out.write(framed.data(), 11);
    ASSERT_TRUE(out.good()) << "partition " << p;
  }
}

/// The ids among `submitted` that recovery kept.
std::vector<TxnId> RecoveredAmong(const std::vector<TxnId>& submitted,
                                  const std::unordered_set<TxnId>& recovered) {
  std::vector<TxnId> out;
  for (const TxnId id : submitted) {
    if (recovered.count(id) != 0) out.push_back(id);
  }
  return out;
}

/// A's in-memory commit logs restricted to the ids recovery kept: per
/// partition the durable records are a prefix of the commit order, minus the
/// multi-partition transactions recovery skipped as incomplete, so these are
/// exactly the histories the recovered engines must be a serial replay of.
std::vector<std::vector<CommitRecord>> FilterByRecovered(
    const std::vector<std::vector<CommitRecord>>& logs,
    const std::unordered_set<TxnId>& recovered) {
  std::vector<std::vector<CommitRecord>> out(logs.size());
  for (size_t p = 0; p < logs.size(); ++p) {
    for (const CommitRecord& rec : logs[p]) {
      if (recovered.count(rec.txn_id) != 0) out[p].push_back(rec);
    }
  }
  return out;
}

// --- kill-and-recover, every scheme, KV mixed SP/MP with round inputs ------

class DurabilityCrashKv : public ::testing::TestWithParam<const char*> {};

TEST_P(DurabilityCrashKv, AckedCommitsSurviveCrash) {
  constexpr int kThreads = 4;
  constexpr int kMaxPerThread = 400;
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = kThreads;
  mb.keys_per_txn = 4;
  mb.mp_fraction = 0.3;
  mb.mp_rounds = 2;  // general transactions: exercises logged round inputs
  const std::string dir = MakeTempDir(std::string("kv_") + GetParam());

  DbOptions opts = KvDbOptions(mb, GetParam(), RunMode::kParallel, 71);
  opts.log_commits = true;
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  opts.group_commit_window_us = 100;
  auto db = Database::Open(std::move(opts));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  // After 60 durably acked transactions (1.3 records each: 30% are MP on
  // both partitions) the logs crash where a budget of 80 logged records put
  // the crash before, which left 62-64 durably acked.
  LogCrash crash;
  crash.db = db.get();
  crash.num_partitions = mb.num_partitions;
  crash.crash_after = 60;

  std::vector<std::vector<TxnId>> acked_per_thread(kThreads);
  std::vector<std::vector<TxnId>> after_crash_per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(500 + static_cast<uint64_t>(t));
      auto session = db->CreateSession();
      for (int i = 0; i < kMaxPerThread; ++i) {
        // Keep submitting briefly past the crash: post-crash completions must
        // still drain (and must see the crash flag set).
        const bool after_crash = crash.all_crashed.load();
        if (after_crash && after_crash_per_thread[t].size() >= 5) break;
        AckedOutcome out = SubmitAndAwait(*session, crash.crashed, proc, DrawKvTxn(mb, t, rng));
        if (after_crash) after_crash_per_thread[t].push_back(out.txn_id);
        if (out.durably_acked) {
          acked_per_thread[t].push_back(out.txn_id);
          crash.CountDurablyAcked();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<TxnId> acked;
  for (const auto& v : acked_per_thread) acked.insert(acked.end(), v.begin(), v.end());
  EXPECT_GT(acked.size(), 0u);
  std::vector<TxnId> after_crash;
  for (const auto& v : after_crash_per_thread) {
    after_crash.insert(after_crash.end(), v.begin(), v.end());
  }
  EXPECT_FALSE(after_crash.empty()) << "the logs never crashed";

  db->Close();
  std::vector<std::vector<CommitRecord>> logs_a;
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    logs_a.push_back(db->commit_log(p));
  }
  db.reset();
  TearNewestSegments(dir, mb.num_partitions);

  // Restart on the same directory: recovery must keep every acked
  // transaction, drop every one submitted after the crash, and land on a
  // replay-identical state.
  DbOptions reopen = KvDbOptions(mb, GetParam(), RunMode::kParallel, 72);
  reopen.durability = DurabilityMode::kGroupCommit;
  reopen.log_dir = dir;
  auto db2 = Database::Open(std::move(reopen));
  const RecoveryReport rep = db2->recovery_report();  // copy: outlives db2
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(rep.performed);
  EXPECT_EQ(rep.replay_aborts, 0u);
  EXPECT_GT(rep.replayed, 0u);
  EXPECT_EQ(rep.torn_tails, static_cast<uint64_t>(mb.num_partitions));

  const std::unordered_set<TxnId> recovered(rep.recovered_txns.begin(),
                                            rep.recovered_txns.end());
  for (const TxnId id : acked) {
    EXPECT_EQ(recovered.count(id), 1u) << "acked txn " << id << " lost by recovery";
  }
  EXPECT_TRUE(RecoveredAmong(after_crash, recovered).empty())
      << "a transaction submitted after the crash was recovered";
  EXPECT_EQ(CheckSerializable(*db2, LogsOf(FilterByRecovered(logs_a, recovered))), "")
      << "recovered state (" << GetParam() << ")";

  // The database must be fully usable after recovery: run more traffic, close
  // cleanly, and restart once more.
  {
    auto session = db2->CreateSession();
    Rng rng(900);
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
    }
  }
  db2->Close();
  db2.reset();

  DbOptions reopen3 = KvDbOptions(mb, GetParam(), RunMode::kParallel, 73);
  reopen3.durability = DurabilityMode::kGroupCommit;
  reopen3.log_dir = dir;
  auto db3 = Database::Open(std::move(reopen3));
  ASSERT_TRUE(db3->recovery_report().ok) << db3->recovery_report().error;
  EXPECT_GE(db3->recovery_report().replayed, rep.replayed + 20);
  // The torn segments are no longer the newest ones.
  EXPECT_EQ(db3->recovery_report().torn_tails, static_cast<uint64_t>(mb.num_partitions));
  db3.reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Schemes, DurabilityCrashKv,
                         ::testing::Values("blocking", "speculation", "locking", "occ",
                                           "mvcc"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// --- kill-and-recover, TPC-C with consistency conditions -------------------

class DurabilityCrashTpcc : public ::testing::TestWithParam<const char*> {};

TEST_P(DurabilityCrashTpcc, RecoveredStateIsConsistent) {
  constexpr int kThreads = 3;
  constexpr int kMaxPerThread = 300;
  TpccWorkloadConfig wl;
  wl.scale.num_warehouses = 4;
  wl.scale.num_partitions = 2;
  wl.scale.items = 200;
  wl.scale.customers_per_district = 30;
  wl.scale.initial_orders_per_district = 30;
  wl.remote_item_prob = 0.15;  // multi-partition NewOrder / Payment
  const std::string dir = MakeTempDir(std::string("tpcc_") + GetParam());

  DbOptions opts = TpccDbOptions(wl.scale, GetParam(), RunMode::kParallel, kThreads, 31);
  opts.log_commits = true;
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  opts.group_commit_window_us = 100;
  auto db = Database::Open(std::move(opts));
  // After 84 durably acked transactions the logs crash where a budget of
  // 120 logged records put the crash before, which left 85-87 durably acked.
  LogCrash crash;
  crash.db = db.get();
  crash.num_partitions = wl.scale.num_partitions;
  crash.crash_after = 84;

  std::vector<std::vector<TxnId>> acked_per_thread(kThreads);
  std::vector<std::vector<TxnId>> after_crash_per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(40 + static_cast<uint64_t>(t));
      auto session = db->CreateSession();
      for (int i = 0; i < kMaxPerThread; ++i) {
        const bool after_crash = crash.all_crashed.load();
        if (after_crash && after_crash_per_thread[t].size() >= 5) break;
        TpccDraw draw = DrawTpccTxn(wl, t, rng);
        const ProcId proc = db->proc(TpccProcName(draw.kind));
        AckedOutcome out = SubmitAndAwait(*session, crash.crashed, proc, std::move(draw.args));
        if (after_crash) after_crash_per_thread[t].push_back(out.txn_id);
        if (out.durably_acked) {
          acked_per_thread[t].push_back(out.txn_id);
          crash.CountDurablyAcked();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<TxnId> acked;
  for (const auto& v : acked_per_thread) acked.insert(acked.end(), v.begin(), v.end());
  std::vector<TxnId> after_crash;
  for (const auto& v : after_crash_per_thread) {
    after_crash.insert(after_crash.end(), v.begin(), v.end());
  }
  EXPECT_FALSE(after_crash.empty()) << "the logs never crashed";
  db->Close();
  std::vector<std::vector<CommitRecord>> logs_a;
  for (PartitionId p = 0; p < wl.scale.num_partitions; ++p) {
    logs_a.push_back(db->commit_log(p));
  }
  db.reset();
  TearNewestSegments(dir, wl.scale.num_partitions);

  // Same seed as the first incarnation: the TPC-C factory's initial load is
  // seed-derived, and recovery replays on top of that load.
  DbOptions reopen = TpccDbOptions(wl.scale, GetParam(), RunMode::kParallel, kThreads, 31);
  reopen.durability = DurabilityMode::kGroupCommit;
  reopen.log_dir = dir;
  auto db2 = Database::Open(std::move(reopen));
  const RecoveryReport rep = db2->recovery_report();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.replay_aborts, 0u);
  EXPECT_EQ(rep.torn_tails, static_cast<uint64_t>(wl.scale.num_partitions));

  const std::unordered_set<TxnId> recovered(rep.recovered_txns.begin(),
                                            rep.recovered_txns.end());
  for (const TxnId id : acked) {
    EXPECT_EQ(recovered.count(id), 1u) << "acked txn " << id << " lost by recovery";
  }
  EXPECT_TRUE(RecoveredAmong(after_crash, recovered).empty())
      << "a transaction submitted after the crash was recovered";
  EXPECT_EQ(CheckSerializable(*db2, LogsOf(FilterByRecovered(logs_a, recovered))), "")
      << "recovered state (" << GetParam() << ")";
  std::vector<const tpcc::TpccDb*> dbs;
  for (PartitionId p = 0; p < wl.scale.num_partitions; ++p) {
    dbs.push_back(&static_cast<TpccEngine&>(db2->engine(p)).db());
  }
  const auto violations = CheckConsistency(dbs);
  EXPECT_TRUE(violations.empty()) << violations.front();
  db2.reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Schemes, DurabilityCrashTpcc,
                         ::testing::Values("blocking", "speculation", "locking", "occ",
                                           "mvcc"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// --- checkpoints -----------------------------------------------------------

TEST(DurabilityCheckpoint, CheckpointPlusTailMatchesFullReplay) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 2;
  mb.keys_per_txn = 4;
  mb.mp_fraction = 0.25;
  const std::string dir = MakeTempDir("ckpt_keep");

  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 81);
  opts.log_commits = true;
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  auto db = Database::Open(std::move(opts));
  const ProcId proc = db->proc(kKvReadUpdateProc);

  auto run = [&](Database& target, int txns, uint64_t seed) {
    auto session = target.CreateSession();
    Rng rng(seed);
    for (int i = 0; i < txns; ++i) {
      ASSERT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
    }
  };
  run(*db, 60, 1);
  // Copies of the segments the checkpoint is about to cover and unlink.
  const std::string saved = MakeTempDir("ckpt_saved");
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    ASSERT_TRUE(std::filesystem::copy_file(PartitionLog::SegmentPath(dir, p, 0),
                                           PartitionLog::SegmentPath(saved, p, 0)));
  }
  ASSERT_TRUE(db->Checkpoint());
  run(*db, 40, 2);

  db->Close();
  std::vector<std::vector<CommitRecord>> logs_a;
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    logs_a.push_back(db->commit_log(p));
  }
  db.reset();
  // Put them back: the state a crash between InstallCheckpoint's rename and
  // its unlinks leaves, the checkpoint image beside the segments it covers.
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    ASSERT_TRUE(std::filesystem::copy_file(PartitionLog::SegmentPath(saved, p, 0),
                                           PartitionLog::SegmentPath(dir, p, 0)));
  }
  std::filesystem::remove_all(saved);

  DbOptions reopen = KvDbOptions(mb, "speculation", RunMode::kParallel, 82);
  reopen.durability = DurabilityMode::kGroupCommit;
  reopen.log_dir = dir;
  auto db2 = Database::Open(std::move(reopen));
  const RecoveryReport& rep = db2->recovery_report();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.checkpoints_loaded, static_cast<uint64_t>(mb.num_partitions));
  // Each partition reads its covered segment and the tail segment after it.
  EXPECT_EQ(rep.segments_read, 2u * mb.num_partitions);
  // Only the tail past the checkpoint replays; the prefix comes from the
  // restored engine image.
  EXPECT_LT(rep.replayed, static_cast<uint64_t>(logs_a[0].size() + logs_a[1].size()));
  EXPECT_EQ(CheckSerializable(*db2, LogsOf(logs_a)), "")
      << "checkpoint+tail diverged from full-history replay";
  db2.reset();
  std::filesystem::remove_all(dir);
}

TEST(DurabilityCheckpoint, TruncatesCoveredSegments) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 1;
  mb.keys_per_txn = 4;
  mb.mp_fraction = 1.0;  // every txn reaches both partitions
  const std::string dir = MakeTempDir("ckpt_trunc");

  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 83);
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  auto db = Database::Open(std::move(opts));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  {
    auto session = db->CreateSession();
    Rng rng(3);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
    }
  }
  ASSERT_TRUE(db->Checkpoint());
  db->Close();
  db.reset();

  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    bool ckpt_found = false;
    bool old_segment_found = false;
    const std::string prefix = std::string("p").append(std::to_string(p)) + "-";
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) != 0) continue;
      if (entry.path().extension() == ".ckpt") ckpt_found = true;
      if (name == prefix + "0.log") old_segment_found = true;
    }
    EXPECT_TRUE(ckpt_found) << "partition " << p;
    EXPECT_FALSE(old_segment_found) << "covered segment not truncated, partition " << p;
  }

  // The truncated directory must still recover to a working database.
  DbOptions reopen = KvDbOptions(mb, "speculation", RunMode::kParallel, 84);
  reopen.durability = DurabilityMode::kGroupCommit;
  reopen.log_dir = dir;
  auto db2 = Database::Open(std::move(reopen));
  ASSERT_TRUE(db2->recovery_report().ok) << db2->recovery_report().error;
  EXPECT_EQ(db2->recovery_report().checkpoints_loaded,
            static_cast<uint64_t>(mb.num_partitions));
  {
    auto session = db2->CreateSession();
    Rng rng(4);
    EXPECT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
  }
  db2.reset();
  std::filesystem::remove_all(dir);
}

TEST(DurabilityCheckpoint, MpHistoryIsPrunedAcrossCheckpointRounds) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 1;
  mb.keys_per_txn = 4;
  mb.mp_fraction = 1.0;  // every txn reaches both partitions
  const std::string dir = MakeTempDir("ckpt_mp_prune");

  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 85);
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  auto db = Database::Open(std::move(opts));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  constexpr int kRounds = 4;
  constexpr int kPerRound = 20;
  for (int r = 0; r < kRounds; ++r) {
    auto session = db->CreateSession();
    Rng rng(100 + static_cast<uint64_t>(r));
    for (int i = 0; i < kPerRound; ++i) {
      ASSERT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
    }
    session.reset();
    ASSERT_TRUE(db->Checkpoint());
  }
  db->Close();
  db.reset();

  // The surviving (latest) checkpoint must list only the multi-partition ids
  // of the last couple of rounds, not the partition's entire lifetime: a
  // fully-successful round lets every log drop the ids its previous rotate
  // captured, because every participant's checkpoint now covers them.
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    const std::string prefix = std::string("p").append(std::to_string(p)) + "-";
    std::string ckpt_path;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) == 0 && entry.path().extension() == ".ckpt") {
        ASSERT_TRUE(ckpt_path.empty()) << "more than one checkpoint kept for partition " << p;
        ckpt_path = entry.path().string();
      }
    }
    ASSERT_FALSE(ckpt_path.empty()) << "partition " << p;
    std::ifstream f(ckpt_path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    CheckpointImage img;
    ASSERT_TRUE(DecodeCheckpoint(bytes, &img)) << ckpt_path;
    EXPECT_LE(img.mp_committed.size(), 2u * kPerRound) << "partition " << p;
    EXPECT_LT(img.mp_committed.size(), static_cast<size_t>(kRounds) * kPerRound)
        << "mp history accumulated across rounds, partition " << p;
    EXPECT_GE(img.mp_committed.size(), static_cast<size_t>(kPerRound)) << "partition " << p;
  }

  // The pruned directory still recovers to a working database.
  DbOptions reopen = KvDbOptions(mb, "speculation", RunMode::kParallel, 86);
  reopen.durability = DurabilityMode::kGroupCommit;
  reopen.log_dir = dir;
  auto db2 = Database::Open(std::move(reopen));
  ASSERT_TRUE(db2->recovery_report().ok) << db2->recovery_report().error;
  {
    auto session = db2->CreateSession();
    Rng rng(5);
    EXPECT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
  }
  db2.reset();
  std::filesystem::remove_all(dir);
}

// --- checkpoints with transactions in flight, every scheme -----------------

class DurabilityCheckpoint : public ::testing::TestWithParam<std::string> {};

/// Closes `db`, reopens its log directory and expects every partition to
/// recover the state `db` held at Close.
void ExpectReopenMatchesLive(std::unique_ptr<Database> db, const KvWorkloadOptions& mb,
                             const std::string& scheme, const std::string& dir) {
  db->Close();
  std::vector<uint64_t> live;
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    live.push_back(db->engine(p).StateHash());
  }
  db.reset();
  DbOptions reopen = KvDbOptions(mb, scheme, RunMode::kParallel, 92);
  reopen.durability = DurabilityMode::kGroupCommit;
  reopen.log_dir = dir;
  auto db2 = Database::Open(std::move(reopen));
  ASSERT_TRUE(db2->recovery_report().ok) << db2->recovery_report().error;
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    EXPECT_EQ(db2->engine(p).StateHash(), live[p]) << "partition " << p;
  }
}

TEST_P(DurabilityCheckpoint, WaitsOutAnMpHeldBetweenRounds) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 1;
  mb.keys_per_txn = 4;
  mb.mp_fraction = 1.0;
  mb.mp_rounds = 2;
  const std::string dir = MakeTempDir("ckpt_held_" + GetParam());

  // The continuation between the two rounds blocks until `release`: the MP
  // has run its first round at both partitions and waits there, so neither
  // scheme is idle until the release plus the second round and the decision.
  std::atomic<bool> entered_once{false};
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  DbOptions opts = KvDbOptions(mb, GetParam(), RunMode::kParallel, 91);
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  ProcedureDescriptor& d = opts.procedures.at(0);
  d.round_input = [inner = d.round_input, &entered_once, &entered, released](
                      const Payload& args, int round,
                      const std::vector<std::pair<PartitionId, PayloadPtr>>& prev) {
    if (!entered_once.exchange(true)) entered.set_value();
    released.wait();
    return inner(args, round, prev);
  };
  auto db = Database::Open(std::move(opts));
  auto session = db->CreateSession();
  Rng rng(7);
  std::promise<bool> done;
  ASSERT_TRUE(session
                  ->Submit(db->proc(kKvReadUpdateProc), DrawKvTxn(mb, 0, rng),
                           [&done](const TxnResult& r) { done.set_value(r.committed); })
                  .accepted);
  entered.get_future().wait();
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    release.set_value();
  });
  EXPECT_TRUE(db->Checkpoint());
  releaser.join();
  EXPECT_TRUE(done.get_future().get());
  session.reset();
  ExpectReopenMatchesLive(std::move(db), mb, GetParam(), dir);
  std::filesystem::remove_all(dir);
}

TEST_P(DurabilityCheckpoint, RecoversUnderConcurrentMpTraffic) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 8;
  mb.keys_per_txn = 4;
  mb.mp_fraction = 0.5;
  const std::string dir = MakeTempDir("ckpt_traffic_" + GetParam());

  DbOptions opts = KvDbOptions(mb, GetParam(), RunMode::kParallel, 93);
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  auto db = Database::Open(std::move(opts));
  std::atomic<bool> stop{false};
  int checkpoints = 0;
  int failed = 0;
  std::thread checkpointer([&] {
    while (!stop.load()) {
      ++checkpoints;
      if (!db->Checkpoint()) ++failed;
    }
  });
  ClosedLoopOptions loop;
  loop.num_clients = mb.num_clients;
  loop.next = KvInvocations(mb, *db);
  loop.warmup = Micros(50000);
  loop.measure = Micros(1000000);
  const Metrics m = RunClosedLoop(*db, loop);
  stop.store(true);
  checkpointer.join();
  EXPECT_GT(m.committed, 0u);
  EXPECT_GT(checkpoints, 0);
  EXPECT_EQ(failed, 0) << "of " << checkpoints << " checkpoints";
  ExpectReopenMatchesLive(std::move(db), mb, GetParam(), dir);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Schemes, DurabilityCheckpoint,
                         ::testing::ValuesIn(CcSchemeRegistry::Global().Names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// --- log file damage: torn tails tolerated, corruption rejected ------------

struct HandLog {
  KvWorkloadOptions mb;
  ProcedureRegistry registry;
  EngineFactory factory;
  std::string dir;
  std::string header;   // encoded segment header alone
  std::string segment;  // encoded p0-0.log bytes: header + 5 records

  HandLog() {
    mb.num_partitions = 1;
    mb.num_clients = 1;
    registry.Register(KvReadUpdateProcedure(mb));
    factory = MakeKvEngineFactory(mb);
    dir = MakeTempDir("handlog");

    LogSegmentHeader h;
    h.partition = 0;
    h.num_partitions = 1;
    h.first_seq = 1;
    h.procs.push_back(LogProcEntry{0, kKvReadUpdateProc});
    EncodeLogSegmentHeader(h, &header);
    segment = header;
    for (uint64_t seq = 1; seq <= 5; ++seq) {
      EncodeLogRecord(Record(seq), &segment);
    }
  }
  ~HandLog() { std::filesystem::remove_all(dir); }

  LogRecord Record(uint64_t seq) const {
    KvArgs args;
    args.keys.resize(1);
    args.keys[0] = {MicrobenchKey(0, 0, 0), MicrobenchKey(0, 0, 1)};
    LogRecord rec;
    rec.commit_seq = seq;
    rec.txn_id = 1000 + seq;
    rec.proc = 0;
    WireWriter w(&rec.args);
    args.SerializeTo(w);
    return rec;
  }

  void WriteSegment(const std::string& bytes, uint64_t index = 0) const {
    std::ofstream f(PartitionLog::SegmentPath(dir, 0, index), std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  RecoveryReport Recover() const {
    RecoveryOptions ro;
    ro.dir = dir;
    ro.num_partitions = 1;
    ro.registry = &registry;
    std::unique_ptr<Engine> engine = factory(0);
    return RecoverDatabase(ro, [&](PartitionId) -> Engine& { return *engine; });
  }
};

TEST(DurabilityLogDamage, TornTailIsTolerated) {
  HandLog h;
  std::string sixth;
  EncodeLogRecord(h.Record(6), &sixth);
  h.WriteSegment(h.segment + sixth.substr(0, 7));  // crash mid-append
  const RecoveryReport rep = h.Recover();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.replayed, 5u);
  EXPECT_EQ(rep.torn_tails, 1u);
}

TEST(DurabilityLogDamage, TornTailBeforeLaterSegmentIsTolerated) {
  // A crash tears segment 0's last append; recovery then resumes in a fresh
  // segment, so the tear sits in a segment that is no longer the last one.
  HandLog h;
  std::string sixth;
  EncodeLogRecord(h.Record(6), &sixth);
  h.WriteSegment(h.segment + sixth.substr(0, 7), 0);
  LogSegmentHeader next;
  next.partition = 0;
  next.num_partitions = 1;
  next.first_seq = 6;
  next.procs.push_back(LogProcEntry{0, kKvReadUpdateProc});
  std::string later;
  EncodeLogSegmentHeader(next, &later);
  for (uint64_t seq = 6; seq <= 8; ++seq) EncodeLogRecord(h.Record(seq), &later);
  h.WriteSegment(later, 1);
  const RecoveryReport rep = h.Recover();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.replayed, 8u);
  EXPECT_EQ(rep.torn_tails, 1u);
}

TEST(DurabilityLogDamage, TornHeaderOnTailSegmentIsTolerated) {
  // Crash between OpenSegment's open(O_CREAT) and the header fsync: the
  // highest-index segment is a short prefix of a header. Everything durable
  // lives in the earlier segments; recovery must replay it and reuse the
  // torn file's index rather than rejecting the partition.
  HandLog h;
  h.WriteSegment(h.segment, 0);
  h.WriteSegment(h.header.substr(0, 10), 1);
  const RecoveryReport rep = h.Recover();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.replayed, 5u);
  EXPECT_EQ(rep.torn_tails, 1u);
  ASSERT_EQ(rep.seeds.size(), 1u);
  EXPECT_EQ(rep.seeds[0].next_seq, 6u);
  EXPECT_EQ(rep.seeds[0].next_segment, 1u);  // overwrite the torn file in place
}

TEST(DurabilityLogDamage, EmptyTailSegmentIsTolerated) {
  // Same crash a beat earlier: the file exists but not a single header byte
  // landed.
  HandLog h;
  h.WriteSegment(h.segment, 0);
  h.WriteSegment("", 1);
  const RecoveryReport rep = h.Recover();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.replayed, 5u);
  EXPECT_EQ(rep.seeds[0].next_segment, 1u);
}

TEST(DurabilityLogDamage, TornHeaderBeforeLaterSegmentsIsRejected) {
  // A short header with a later segment present cannot be crash timing — the
  // next segment is only ever created after the previous one was synced.
  HandLog h;
  h.WriteSegment(h.header.substr(0, 10), 0);
  h.WriteSegment(h.segment, 1);
  const RecoveryReport rep = h.Recover();
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("truncated segment header"), std::string::npos) << rep.error;
}

TEST(DurabilityLogDamage, MidFileCorruptionIsRejected) {
  HandLog h;
  std::string damaged = h.segment;
  // Flip a byte inside the first record's body (crc-covered, with intact
  // records after it): corruption, not a torn append.
  std::string header_only;
  LogSegmentHeader hdr;
  hdr.partition = 0;
  hdr.num_partitions = 1;
  hdr.first_seq = 1;
  hdr.procs.push_back(LogProcEntry{0, kKvReadUpdateProc});
  EncodeLogSegmentHeader(hdr, &header_only);
  damaged[header_only.size() + 8 + 2] ^= 0xFF;
  h.WriteSegment(damaged);
  const RecoveryReport rep = h.Recover();
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("p0-0.log"), std::string::npos) << rep.error;
}

TEST(DurabilityLogDamage, CorruptCheckpointIsRejected) {
  HandLog h;
  h.WriteSegment(h.segment);
  std::ofstream f(PartitionLog::CheckpointPath(h.dir, 0, 3), std::ios::binary);
  f << "this is not a checkpoint";
  f.close();
  const RecoveryReport rep = h.Recover();
  EXPECT_FALSE(rep.ok);
}

// --- log format: crc and in-place framing ----------------------------------

/// Bit-at-a-time CRC-32 (IEEE, reflected): the definition the table-driven
/// Crc32 must agree with.
uint32_t ReferenceCrc32(const unsigned char* p, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(DurabilityLogFormat, Crc32MatchesBitwiseReference) {
  EXPECT_EQ(Crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string_view()), 0u);
  Rng rng(17);
  std::vector<unsigned char> buf(8 + 300);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Crc32(buf.data() + align, len), ReferenceCrc32(buf.data() + align, len))
          << "len " << len << " align " << align;
    }
  }
}

/// A one-partition log driven directly (no Database), started without a
/// report target, so Append/Shutdown run exactly as on a partition worker
/// and nothing but the test appends.
struct DirectLog {
  std::string dir = MakeTempDir("direct");
  std::unique_ptr<PartitionLog> plog;

  explicit DirectLog(Duration window) {
    PartitionLog::Config cfg;
    cfg.dir = dir;
    cfg.partition = 0;
    cfg.num_partitions = 1;
    cfg.window = window;
    cfg.procs.push_back(LogProcEntry{0, kKvReadUpdateProc});
    plog = std::make_unique<PartitionLog>(std::move(cfg));
    plog->Start();
  }
  ~DirectLog() {
    plog.reset();
    std::filesystem::remove_all(dir);
  }
  PartitionLog& log() { return *plog; }

  /// Polls until the writer has completed `batches` batches (5 s cap).
  void AwaitBatches(uint64_t batches) {
    for (int i = 0; i < 5000 && log().GetStats().batches < batches; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
}

std::string Serialized(const Payload& p) {
  std::string out;
  WireWriter w(&out);
  p.SerializeTo(w);
  return out;
}

TEST(DurabilityLogFormat, InPlaceAppendMatchesEncodeLogRecord) {
  auto args = std::make_shared<KvArgs>();
  args->keys = {{MicrobenchKey(0, 0, 0), MicrobenchKey(0, 0, 1)}, {MicrobenchKey(1, 0, 2)}};
  args->rounds = 2;
  auto input = std::make_shared<KvRoundInput>();
  input->values = {{7, 8}, {9}};

  CommitRecord sp;  // single-partition, one round without an input
  sp.txn_id = 5001;
  sp.proc = 0;
  sp.args = args;
  sp.round_inputs = {nullptr};
  CommitRecord mp;  // multi-partition, a null round-0 input then a real one
  mp.txn_id = 5002;
  mp.multi_partition = true;
  mp.proc = 0;
  mp.args = args;
  mp.round_inputs = {nullptr, input};

  std::vector<LogRecord> expect(2);
  expect[0].commit_seq = 1;
  expect[0].txn_id = sp.txn_id;
  expect[0].proc = 0;
  expect[0].args = Serialized(*args);
  expect[0].round_inputs = {""};
  expect[0].round_input_present = {false};
  expect[1] = expect[0];
  expect[1].commit_seq = 2;
  expect[1].txn_id = mp.txn_id;
  expect[1].multi_partition = true;
  expect[1].round_inputs = {"", Serialized(*input)};
  expect[1].round_input_present = {false, true};

  DirectLog d(0);
  EXPECT_EQ(d.log().Append(sp), 1u);
  EXPECT_EQ(d.log().Append(mp), 2u);
  d.log().Shutdown();

  LogSegmentHeader h;
  h.partition = 0;
  h.num_partitions = 1;
  h.first_seq = 1;
  h.procs.push_back(LogProcEntry{0, kKvReadUpdateProc});
  std::string want;
  EncodeLogSegmentHeader(h, &want);
  for (const LogRecord& rec : expect) EncodeLogRecord(rec, &want);
  const std::string got = ReadFile(PartitionLog::SegmentPath(d.dir, 0, 0));
  EXPECT_EQ(got, want);

  const LogSegmentContents seg = ParseLogSegment(got);
  ASSERT_EQ(seg.status, LogReadStatus::kCleanEof);
  ASSERT_EQ(seg.records.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    const LogRecord& r = seg.records[i];
    EXPECT_EQ(r.commit_seq, expect[i].commit_seq);
    EXPECT_EQ(r.txn_id, expect[i].txn_id);
    EXPECT_EQ(r.multi_partition, expect[i].multi_partition);
    EXPECT_EQ(r.proc, expect[i].proc);
    EXPECT_EQ(r.args, expect[i].args);
    EXPECT_EQ(r.round_inputs, expect[i].round_inputs);
    EXPECT_EQ(r.round_input_present, expect[i].round_input_present);
  }
}

// --- log writer: edge-only wake, one cadence for both modes ----------------

TEST(DurabilityLogWriter, BurstIntoParkedWriterCostsOneWake) {
  auto args = std::make_shared<KvArgs>();
  args->keys = {{MicrobenchKey(0, 0, 0)}};
  CommitRecord rec;
  rec.proc = 0;
  rec.args = args;
  rec.round_inputs = {nullptr};

  DirectLog d(50 * kMillisecond);
  // Give the writer time to park on its first wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < 1000; ++i) {
    rec.txn_id = static_cast<TxnId>(i + 1);
    d.log().Append(rec);
  }
  d.AwaitBatches(1);
  DurabilityStats s = d.log().GetStats();
  EXPECT_EQ(s.writer_wakes, 1u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.records, 1000u);

  // More bursts: every signal finds a parked writer, which then writes at
  // least one batch before it parks again.
  for (int burst = 0; burst < 5; ++burst) {
    for (int i = 0; i < 10; ++i) d.log().Append(rec);
    d.AwaitBatches(s.batches + 1);
    s = d.log().GetStats();
  }
  d.log().Shutdown();
  s = d.log().GetStats();
  EXPECT_EQ(s.records, 1050u);
  EXPECT_LE(s.writer_wakes, s.batches);
}

TEST(DurabilityLogWriter, AsyncNeverWaitsForTheWindow) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 1;
  mb.keys_per_txn = 4;
  mb.mp_fraction = 0;
  const std::string dir = MakeTempDir("async_window");
  constexpr int kTxns = 200;
  constexpr uint32_t kWindowUs = 50000;

  const auto t0 = std::chrono::steady_clock::now();
  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 94);
  opts.durability = DurabilityMode::kAsync;
  opts.log_dir = dir;
  opts.group_commit_window_us = kWindowUs;
  auto db = Database::Open(std::move(opts));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  {
    auto session = db->CreateSession();
    Rng rng(8);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kTxns; ++i) {
      ASSERT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2))
        << "async completions waited for the batch window";
  }
  db->Close();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  const auto windows = static_cast<uint64_t>(elapsed / std::chrono::microseconds(kWindowUs));
  const DurabilityStats stats = db->Stats().durability;
  EXPECT_EQ(stats.records, static_cast<uint64_t>(kTxns));
  EXPECT_EQ(stats.deferred_completions, 0u);
  // Every batch but a final one cut short by Close is held open a full
  // window, so the writers cannot fsync back to back.
  EXPECT_LE(stats.fsyncs, static_cast<uint64_t>(mb.num_partitions) * (windows + 2));
  EXPECT_LE(stats.writer_wakes, stats.batches);
  db.reset();

  DbOptions reopen = KvDbOptions(mb, "speculation", RunMode::kParallel, 95);
  reopen.durability = DurabilityMode::kAsync;
  reopen.log_dir = dir;
  auto db2 = Database::Open(std::move(reopen));
  ASSERT_TRUE(db2->recovery_report().ok) << db2->recovery_report().error;
  EXPECT_EQ(db2->recovery_report().replayed, static_cast<uint64_t>(kTxns));
  db2.reset();
  std::filesystem::remove_all(dir);
}

TEST(DurabilityLogWriter, CloseBatchCutsTheWindowShort) {
  auto args = std::make_shared<KvArgs>();
  args->keys = {{MicrobenchKey(0, 0, 0)}};
  CommitRecord rec;
  rec.proc = 0;
  rec.args = args;
  rec.round_inputs = {nullptr};

  DirectLog d(10 * kSecond);
  const auto start = std::chrono::steady_clock::now();
  rec.txn_id = 1;
  d.log().Append(rec);
  d.log().CloseBatch();
  d.AwaitBatches(1);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  DurabilityStats s = d.log().GetStats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.early_closes, 1u);

  // A record appended after that close keeps its batch open for the window.
  rec.txn_id = 2;
  d.log().Append(rec);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(d.log().GetStats().batches, 1u) << "an unclosed batch left before its window";

  // The next close releases it.
  d.log().CloseBatch();
  d.AwaitBatches(2);
  s = d.log().GetStats();
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.records, 2u);
  EXPECT_EQ(s.early_closes, 2u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  d.log().Shutdown();
}

// Only a partition holding replies for its log closes batches when it goes
// idle: async keeps the full window on every batch, so its pacing (and
// batch size) does not change.
TEST(DurabilityLogWriter, OnlyGroupCommitClosesEarly) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 1;
  mb.keys_per_txn = 4;
  mb.mp_fraction = 0.3;
  for (const DurabilityMode mode : {DurabilityMode::kAsync, DurabilityMode::kGroupCommit}) {
    const std::string dir = MakeTempDir("early_close");
    DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 96);
    opts.durability = mode;
    opts.log_dir = dir;
    opts.group_commit_window_us = 5000;
    auto db = Database::Open(std::move(opts));
    const ProcId proc = db->proc(kKvReadUpdateProc);
    {
      auto session = db->CreateSession();
      Rng rng(9);
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
      }
    }
    db->Close();
    const DurabilityStats stats = db->Stats().durability;
    EXPECT_GE(stats.records, 20u);
    if (mode == DurabilityMode::kAsync) {
      EXPECT_EQ(stats.early_closes, 0u);
    } else {
      EXPECT_GT(stats.early_closes, 0u);
      EXPECT_LE(stats.early_closes, stats.batches);
    }
    db.reset();
    std::filesystem::remove_all(dir);
  }
}

// --- modes and counters ----------------------------------------------------

TEST(DurabilityStatsTest, GroupCommitCountersAreSane) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 4;
  mb.keys_per_txn = 4;
  mb.mp_fraction = 0.2;
  const std::string dir = MakeTempDir("stats");

  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 91);
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  auto db = Database::Open(std::move(opts));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      auto session = db->CreateSession();
      Rng rng(60 + static_cast<uint64_t>(t));
      for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(session->Execute(proc, DrawKvTxn(mb, t, rng)).committed);
      }
    });
  }
  for (auto& t : threads) t.join();
  const DurabilityStats stats = db->Stats().durability;
  EXPECT_GE(stats.records, 200u);  // one record per participant per commit
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.fsyncs, 0u);
  EXPECT_GT(stats.bytes_logged, 0u);
  EXPECT_GE(stats.avg_batch_size(), 1.0);
  db.reset();
  std::filesystem::remove_all(dir);
}

TEST(DurabilityStatsTest, AsyncModeLogsWithoutGating) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 1;
  mb.keys_per_txn = 4;
  const std::string dir = MakeTempDir("async");

  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 92);
  opts.durability = DurabilityMode::kAsync;
  opts.log_dir = dir;
  auto db = Database::Open(std::move(opts));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  {
    auto session = db->CreateSession();
    Rng rng(7);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
    }
  }
  db->Close();
  const DurabilityStats stats = db->Stats().durability;
  EXPECT_GE(stats.records, 40u);
  EXPECT_EQ(stats.deferred_completions, 0u);  // async never parks completions
  db.reset();

  // Async still recovers everything written before a clean shutdown.
  DbOptions reopen = KvDbOptions(mb, "speculation", RunMode::kParallel, 93);
  reopen.durability = DurabilityMode::kAsync;
  reopen.log_dir = dir;
  auto db2 = Database::Open(std::move(reopen));
  ASSERT_TRUE(db2->recovery_report().ok) << db2->recovery_report().error;
  EXPECT_GE(db2->recovery_report().replayed, 40u);
  db2.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace partdb

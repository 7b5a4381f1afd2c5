// Tests for the embedded Database/Session façade: procedure registry
// semantics, synchronous Execute on both execution contexts (including user
// abort propagation), concurrent multi-threaded Submit checked serializable
// across every concurrency-control scheme, the closed-loop
// session adapter, and the open-loop Poisson load driver's rate accuracy.
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "db/closed_loop.h"
#include "db/database.h"
#include "db/load_driver.h"
#include "gtest/gtest.h"
#include "kv/kv_procedures.h"
#include "test_util.h"

namespace partdb {
namespace {

KvWorkloadOptions SmallConfig(int clients, double mp_fraction, double abort_prob = 0.0) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = clients;
  mb.mp_fraction = mp_fraction;
  mb.abort_prob = abort_prob;
  return mb;
}

DbOptions SmallDb(const KvWorkloadOptions& mb, const std::string& scheme, RunMode mode,
                  int max_sessions) {
  DbOptions opts;
  opts.scheme = scheme;
  opts.mode = mode;
  opts.num_partitions = mb.num_partitions;
  opts.max_sessions = max_sessions;
  opts.log_commits = true;
  opts.seed = 4711;
  opts.engine_factory = MakeKvEngineFactory(mb);
  opts.procedures.push_back(KvReadUpdateProcedure(mb));
  return opts;
}

/// Single-partition read/update args for logical client `c` on partition `p`.
std::shared_ptr<KvArgs> SpArgs(const KvWorkloadOptions& mb, int c, PartitionId p,
                               bool abort_txn = false) {
  auto args = std::make_shared<KvArgs>();
  args->keys.resize(mb.num_partitions);
  for (int i = 0; i < mb.keys_per_txn; ++i) {
    args->keys[p].push_back(MicrobenchKey(c, p, i));
  }
  args->abort_txn = abort_txn;
  return args;
}

/// Multi-partition args touching every partition.
std::shared_ptr<KvArgs> MpArgs(const KvWorkloadOptions& mb, int c, int rounds = 1) {
  auto args = std::make_shared<KvArgs>();
  args->keys.resize(mb.num_partitions);
  const int per = mb.keys_per_txn / mb.num_partitions;
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    for (int i = 0; i < per; ++i) args->keys[p].push_back(MicrobenchKey(c, p, i));
  }
  args->rounds = rounds;
  return args;
}

TEST(ProcedureRegistry, RegisterFindDispatch) {
  ProcedureRegistry reg;
  EXPECT_EQ(reg.Find(kKvReadUpdateProc), kInvalidProc);
  const ProcId id = reg.Register(KvReadUpdateProcedure(SmallConfig(2, 0.5)));
  EXPECT_EQ(reg.Find(kKvReadUpdateProc), id);
  EXPECT_EQ(reg.size(), 1u);

  const KvWorkloadOptions mb = SmallConfig(2, 0.5);
  auto sp = SpArgs(mb, 0, 1);
  TxnRouting r = reg.Get(id).route(*sp);
  EXPECT_TRUE(r.single_partition());
  EXPECT_EQ(r.participants, std::vector<PartitionId>{1});
  EXPECT_FALSE(r.can_abort);

  auto mp = MpArgs(mb, 0, /*rounds=*/2);
  r = reg.Get(id).route(*mp);
  EXPECT_EQ(r.participants.size(), 2u);
  EXPECT_EQ(r.rounds, 2);

  auto ab = SpArgs(mb, 0, 0, /*abort_txn=*/true);
  EXPECT_TRUE(reg.Get(id).route(*ab).can_abort);
}

TEST(SimSession, ExecuteCommitsAndReturnsPayload) {
  const KvWorkloadOptions mb = SmallConfig(4, 0.2);
  auto db = Database::Open(SmallDb(mb, "speculation", RunMode::kSimulated, 2));
  auto session = db->CreateSession();

  const ProcId proc = db->proc(kKvReadUpdateProc);
  for (int i = 0; i < 20; ++i) {
    TxnResult r = session->Execute(proc, SpArgs(mb, 0, i % 2));
    EXPECT_TRUE(r.committed);
    EXPECT_GT(r.latency_ns, 0);
    EXPECT_EQ(r.attempts, 1u);
    ASSERT_NE(r.payload, nullptr);
    // The microbench returns the pre-update counter values in key order.
    EXPECT_EQ(PayloadCast<KvResult>(*r.payload).values.size(),
              static_cast<size_t>(mb.keys_per_txn));
  }
  // Multi-partition (coordinator path) and two-round general transactions.
  TxnResult mp = session->Execute(proc, MpArgs(mb, 1));
  EXPECT_TRUE(mp.committed);
  TxnResult general = session->Execute(proc, MpArgs(mb, 1, /*rounds=*/2));
  EXPECT_TRUE(general.committed);

  session.reset();
  db->Close();
  EXPECT_EQ(CheckSerializable(*db), "");
}

TEST(SimSession, ExecutePropagatesUserAborts) {
  const KvWorkloadOptions mb = SmallConfig(2, 0.0);
  auto db = Database::Open(SmallDb(mb, "speculation", RunMode::kSimulated, 1));
  auto session = db->CreateSession();
  const ProcId proc = db->proc(kKvReadUpdateProc);

  TxnResult committed = session->Execute(proc, SpArgs(mb, 0, 0));
  EXPECT_TRUE(committed.committed);

  TxnResult aborted = session->Execute(proc, SpArgs(mb, 0, 0, /*abort_txn=*/true));
  EXPECT_FALSE(aborted.committed);
  EXPECT_EQ(aborted.payload, nullptr);

  // A multi-partition user abort surfaces the same way.
  auto mp = MpArgs(mb, 1);
  mp->abort_at = 1;
  TxnResult mp_aborted = session->Execute(proc, mp);
  EXPECT_FALSE(mp_aborted.committed);
}

TEST(ParallelSession, ExecutePropagatesUserAborts) {
  const KvWorkloadOptions mb = SmallConfig(2, 0.0);
  auto db = Database::Open(SmallDb(mb, "speculation", RunMode::kParallel, 1));
  auto session = db->CreateSession();
  const ProcId proc = db->proc(kKvReadUpdateProc);

  EXPECT_TRUE(session->Execute(proc, SpArgs(mb, 0, 0)).committed);
  EXPECT_FALSE(session->Execute(proc, SpArgs(mb, 0, 0, /*abort_txn=*/true)).committed);
  auto mp = MpArgs(mb, 1);
  mp->abort_at = 0;
  EXPECT_FALSE(session->Execute(proc, mp).committed);
}

struct SchemeParam {
  const char* scheme;
  double mp_fraction;
  double abort_prob;
};

class ConcurrentSubmit : public ::testing::TestWithParam<SchemeParam> {};

// Many driver threads, each with its own session, submit concurrently; the
// committed history must pass CheckSerializable (one acyclic conflict
// history whose serial replay reproduces the live state).
TEST_P(ConcurrentSubmit, SerializableUnderConcurrentSessions) {
  const SchemeParam param = GetParam();
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 150;

  const KvWorkloadOptions mb = SmallConfig(kThreads, param.mp_fraction, param.abort_prob);
  auto db = Database::Open(SmallDb(mb, param.scheme, RunMode::kParallel, kThreads));
  const ProcId proc = db->proc(kKvReadUpdateProc);

  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> user_aborts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(1000 + static_cast<uint64_t>(t));
      auto session = db->CreateSession();
      for (int i = 0; i < kTxnsPerThread; ++i) {
        // Half sync Execute, half async Submit (drained by the session dtor).
        PayloadPtr args = DrawKvTxn(mb, t, rng);
        if (i % 2 == 0) {
          TxnResult r = session->Execute(proc, std::move(args));
          (r.committed ? committed : user_aborts)++;
        } else {
          session->Submit(proc, std::move(args), [&](const TxnResult& r) {
            (r.committed ? committed : user_aborts)++;
          });
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  db->Close();

  EXPECT_EQ(committed + user_aborts, static_cast<uint64_t>(kThreads) * kTxnsPerThread);
  EXPECT_GT(committed, 0u);
  if (param.abort_prob == 0) {
    EXPECT_EQ(user_aborts, 0u);
  }
  EXPECT_EQ(CheckSerializable(*db), "");
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ConcurrentSubmit,
    ::testing::Values(SchemeParam{"speculation", 0.3, 0.0},
                      SchemeParam{"speculation", 0.5, 0.1},
                      SchemeParam{"blocking", 0.3, 0.05},
                      SchemeParam{"locking", 0.3, 0.05},
                      SchemeParam{"occ", 0.3, 0.05},
                      SchemeParam{"mvcc", 0.3, 0.05},
                      SchemeParam{"mvcc", 0.5, 0.1}),
    [](const ::testing::TestParamInfo<SchemeParam>& info) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s_mp%d_abort%d", info.param.scheme,
                    static_cast<int>(info.param.mp_fraction * 100),
                    static_cast<int>(info.param.abort_prob * 100));
      return std::string(buf);
    });

TEST(ClosedLoopAdapter, DrivesWorkloadOverSessionsInSim) {
  const KvWorkloadOptions mb = SmallConfig(8, 0.25);
  auto db = Database::Open(SmallDb(mb, "speculation", RunMode::kSimulated, 8));

  ClosedLoopOptions loop;
  loop.num_clients = 8;
  loop.next = KvInvocations(mb, *db);
  loop.warmup = Micros(10000);
  loop.measure = Micros(80000);
  Metrics m = RunClosedLoop(*db, loop);
  db->Close();

  EXPECT_GT(m.committed, 100u);
  EXPECT_GT(m.mp_committed, 0u);
  EXPECT_GT(m.sp_latency.count(), 0u);
  EXPECT_GT(m.Throughput(), 0.0);
  EXPECT_EQ(CheckSerializable(*db), "");
}

TEST(ClosedLoopAdapter, DrivesWorkloadOverSessionsInParallel) {
  const KvWorkloadOptions mb = SmallConfig(6, 0.2);
  auto db = Database::Open(SmallDb(mb, "speculation", RunMode::kParallel, 6));

  ClosedLoopOptions loop;
  loop.num_clients = 6;
  loop.next = KvInvocations(mb, *db);
  loop.warmup = Micros(20000);
  loop.measure = Micros(150000);
  Metrics m = RunClosedLoop(*db, loop);
  db->Close();

  EXPECT_GT(m.committed, 0u);
  EXPECT_GT(m.window_ns, 0);
  EXPECT_EQ(CheckSerializable(*db), "");
}

// Both modes fill the measurement window through the same Database path: the
// window length, the partition count, busy time, and a commit count that
// decomposes exactly into the per-procedure counts.
TEST(MeasurementWindow, BothModesFillTheWindow) {
  for (RunMode mode : {RunMode::kSimulated, RunMode::kParallel}) {
    SCOPED_TRACE(mode == RunMode::kSimulated ? "simulated" : "parallel");
    const KvWorkloadOptions mb = SmallConfig(6, 0.2);
    auto db = Database::Open(SmallDb(mb, "speculation", mode, 6));

    ClosedLoopOptions loop;
    loop.num_clients = 6;
    loop.next = KvInvocations(mb, *db);
    loop.warmup = Micros(10000);
    loop.measure = Micros(50000);
    const Metrics m = RunClosedLoop(*db, loop);
    uint64_t proc_committed = 0;
    for (const Metrics::ProcOutcomes& p : m.procs) proc_committed += p.committed;
    db->Close();

    EXPECT_GT(m.committed, 0u);
    EXPECT_EQ(m.committed, proc_committed);
    EXPECT_GT(m.window_ns, 0);
    EXPECT_EQ(m.num_partitions, mb.num_partitions);
    EXPECT_GT(m.partition_busy_ns, 0);
    EXPECT_GT(m.coord_busy_ns, 0);  // multi-partition traffic runs through it
  }
}

// A window counts only its own traffic, at the session and at the partition
// alike: a transaction run between two windows shows up in neither.
TEST(MeasurementWindow, BetweenWindowTrafficIsNotCounted) {
  const KvWorkloadOptions mb = SmallConfig(2, 0.0);
  auto db = Database::Open(SmallDb(mb, "locking", RunMode::kSimulated, 1));
  auto session = db->CreateSession();
  const ProcId proc = db->proc(kKvReadUpdateProc);
  auto expect_one_txn = [](const Metrics& m) {
    EXPECT_EQ(m.committed, 1u);
    EXPECT_EQ(m.sp_latency.count(), 1u);
    EXPECT_EQ(m.lock_fast_path + m.locked_txns, 1u);
  };

  db->BeginMeasurement();
  EXPECT_TRUE(session->Execute(proc, SpArgs(mb, 0, 0)).committed);
  expect_one_txn(db->EndMeasurement());

  EXPECT_TRUE(session->Execute(proc, SpArgs(mb, 0, 1)).committed);

  db->BeginMeasurement();
  EXPECT_TRUE(session->Execute(proc, SpArgs(mb, 0, 0)).committed);
  expect_one_txn(db->EndMeasurement());

  session.reset();
  db->Close();
}

TEST(OpenLoopDriver, HitsTargetRateWithinTolerance) {
  const KvWorkloadOptions mb = SmallConfig(2, 0.1);
  auto db = Database::Open(SmallDb(mb, "speculation", RunMode::kParallel, 2));

  LoadDriverOptions load;
  load.threads = 2;
  load.target_tps = 2000.0;
  load.duration = 600 * kMillisecond;
  load.proc = db->proc(kKvReadUpdateProc);
  load.next_args = [mb](int c, Rng& rng) { return DrawKvTxn(mb, c, rng); };
  LoadDriverReport r = RunOpenLoop(*db, load);
  db->Close();

  // Poisson stddev at 1200 arrivals is ~3%; allow generous headroom for
  // scheduling jitter on loaded CI machines.
  EXPECT_GT(r.offered_tps, load.target_tps * 0.80) << "driver under-delivered arrivals";
  EXPECT_LT(r.offered_tps, load.target_tps * 1.20) << "driver over-delivered arrivals";
  EXPECT_EQ(r.completed, r.submitted);
  EXPECT_GT(r.committed, 0u);
  EXPECT_GT(r.latency.count(), 0u);
  EXPECT_EQ(CheckSerializable(*db), "");
}

// A driver thread that cannot keep its schedule (argument generation takes
// 2 ms against a 1 ms mean inter-arrival per thread) submits ever later. The
// wait is latency the transactions saw, so the median reaches milliseconds
// even though each one executes in microseconds once submitted.
TEST(OpenLoopDriver, LatencyCountsLateSubmissions) {
  const KvWorkloadOptions mb = SmallConfig(2, 0.0);
  auto db = Database::Open(SmallDb(mb, "speculation", RunMode::kParallel, 2));

  LoadDriverOptions load;
  load.threads = 2;
  load.target_tps = 2000.0;
  load.duration = 100 * kMillisecond;
  load.proc = db->proc(kKvReadUpdateProc);
  load.next_args = [mb](int c, Rng& rng) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return DrawKvTxn(mb, c, rng);
  };
  LoadDriverReport r = RunOpenLoop(*db, load);
  db->Close();

  EXPECT_EQ(r.completed, r.submitted);
  ASSERT_GT(r.latency.count(), 0u);
  EXPECT_GE(r.latency.Percentile(50), 1e6) << "late submissions were timed from Submit";
}

// --- session ingress ---------------------------------------------------------

// A burst of foreign-thread submissions made before the simulator runs: every
// one commits, the callbacks run in submit order, and the session drains.
TEST(SessionIngress, SimBurstCompletesInSubmitOrder) {
  constexpr int kBurst = 50;
  const KvWorkloadOptions mb = SmallConfig(4, 0.0);
  auto db = Database::Open(SmallDb(mb, "speculation", RunMode::kSimulated, 1));
  auto session = db->CreateSession();
  const ProcId proc = db->proc(kKvReadUpdateProc);

  std::vector<int> order;
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_TRUE(session->Submit(proc, SpArgs(mb, 0, 0), [&order, i](const TxnResult& r) {
                          EXPECT_TRUE(r.committed);
                          order.push_back(i);
                        }).accepted);
  }
  EXPECT_EQ(session->outstanding(), static_cast<uint64_t>(kBurst));

  session->Drain();
  ASSERT_EQ(order.size(), static_cast<size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) EXPECT_EQ(order[i], i) << "completion " << i;
  EXPECT_EQ(session->outstanding(), 0u);

  session.reset();
  db->Close();
}

// Four threads submit into one session at once, all on one partition: each
// thread's callbacks arrive in that thread's submit order, all of them on
// the session's one worker thread.
TEST(SessionIngress, ForeignThreadsKeepPerThreadOrder) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  const KvWorkloadOptions mb = SmallConfig(kThreads, 0.0);
  auto db = Database::Open(SmallDb(mb, "speculation", RunMode::kParallel, 1));
  auto session = db->CreateSession();
  const ProcId proc = db->proc(kKvReadUpdateProc);

  struct Seen {
    Mutex mu;
    std::vector<std::vector<int>> order PARTDB_GUARDED_BY(mu);
    std::vector<std::thread::id> threads PARTDB_GUARDED_BY(mu);
  } seen;
  {
    MutexLock lock(seen.mu);
    seen.order.resize(kThreads);
  }
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        const SubmitResult sr =
            session->Submit(proc, SpArgs(mb, t, 0), [&seen, t, i](const TxnResult& r) {
              EXPECT_TRUE(r.committed);
              MutexLock lock(seen.mu);
              seen.order[t].push_back(i);
              seen.threads.push_back(std::this_thread::get_id());
            });
        EXPECT_TRUE(sr.accepted);
      }
    });
  }
  for (auto& s : submitters) s.join();
  session->Drain();
  EXPECT_EQ(session->outstanding(), 0u);

  MutexLock lock(seen.mu);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen.order[t].size(), static_cast<size_t>(kPerThread)) << "thread " << t;
    for (int i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(seen.order[t][i], i) << "thread " << t << " completion " << i;
    }
  }
  ASSERT_EQ(seen.threads.size(), static_cast<size_t>(kThreads) * kPerThread);
  for (const std::thread::id& id : seen.threads) ASSERT_EQ(id, seen.threads.front());

  session.reset();
  db->Close();
}

// --- admission control (backpressure) ---------------------------------------

// Submissions beyond max_inflight_per_session are refused deterministically:
// the simulator has not run, so nothing can complete between the submits.
TEST(AdmissionControl, RejectsBeyondBoundAndRecoversAfterDrain) {
  const KvWorkloadOptions mb = SmallConfig(4, 0.0);
  DbOptions opts = SmallDb(mb, "speculation", RunMode::kSimulated, 1);
  opts.max_inflight_per_session = 3;
  auto db = Database::Open(std::move(opts));
  auto session = db->CreateSession();
  const ProcId proc = db->proc(kKvReadUpdateProc);

  int done = 0;
  std::vector<bool> accepted;
  for (int i = 0; i < 5; ++i) {
    accepted.push_back(
        session->Submit(proc, SpArgs(mb, 0, 0), [&](const TxnResult&) { done++; }).accepted);
  }
  EXPECT_EQ(accepted, (std::vector<bool>{true, true, true, false, false}));

  session->Drain();
  EXPECT_EQ(done, 3);  // rejected submissions never ran their callbacks

  // Completions released their slots.
  EXPECT_TRUE(session->Submit(proc, SpArgs(mb, 0, 0), nullptr).accepted);
  session->Drain();
  session.reset();
  db->Close();
}

// A closed loop holds exactly one admission slot: the completion callback's
// resubmission reuses the slot the completing transaction released, so the
// tightest bound sustains the loop on both execution contexts.
TEST(AdmissionControl, ClosedLoopSustainsUnderBoundOne) {
  const KvWorkloadOptions mb = SmallConfig(6, 0.2);
  for (RunMode mode : {RunMode::kSimulated, RunMode::kParallel}) {
    DbOptions opts = KvDbOptions(mb, "speculation", mode, 99);
    opts.max_inflight_per_session = 1;
    auto db = Database::Open(std::move(opts));
    ClosedLoopOptions loop;
    loop.num_clients = mb.num_clients;
    loop.next = KvInvocations(mb, *db);
    loop.warmup = Micros(5000);
    loop.measure = Micros(20000);
    const Metrics m = RunClosedLoop(*db, loop);
    EXPECT_GT(m.committed, 0u);
    db->Close();
  }
}

TEST(Database, SessionSlotsRecycle) {
  const KvWorkloadOptions mb = SmallConfig(2, 0.0);
  auto db = Database::Open(SmallDb(mb, "speculation", RunMode::kParallel, 2));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  for (int round = 0; round < 3; ++round) {
    auto a = db->CreateSession();
    auto b = db->CreateSession();
    EXPECT_TRUE(a->Execute(proc, SpArgs(mb, 0, 0)).committed);
    EXPECT_TRUE(b->Execute(proc, SpArgs(mb, 1, 1)).committed);
  }
  db->Close();
}

// The wiring Database::Open builds: coordinator at node 0, primaries at
// [1, 1+P), backups after them, session slots last; in parallel mode one
// worker per partition and per backup, then the coordinator's, then two
// session workers shared round-robin.
TEST(DbWiring, NodeLayoutAndWorkerMap) {
  constexpr int P = 3;
  constexpr int B = P;  // replication 2: one backup per partition
  constexpr int S = 5;
  KvWorkloadOptions mb = SmallConfig(2, 0.0);
  mb.num_partitions = P;
  DbOptions opts = SmallDb(mb, "speculation", RunMode::kParallel, S);
  opts.replication = 2;
  auto db = Database::Open(opts);
  ParallelRuntime* rt = db->parallel_runtime();
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->num_workers(), P + B + 1 + 2);
  EXPECT_EQ(rt->worker_of(0), P + B);
  for (int p = 0; p < P; ++p) {
    EXPECT_EQ(db->partition(p).node_id(), 1 + p);
    EXPECT_EQ(rt->worker_of(1 + p), p);
  }
  for (int b = 0; b < B; ++b) EXPECT_EQ(rt->worker_of(1 + P + b), P + b);
  std::vector<std::unique_ptr<Session>> sessions;
  for (int s = 0; s < S; ++s) {
    EXPECT_EQ(rt->worker_of(1 + P + B + s), P + B + 1 + s % 2);
    sessions.push_back(db->CreateSession());
    EXPECT_EQ(static_cast<LocalSession&>(*sessions.back()).actor().node_id(), 1 + P + B + s);
  }
  sessions.clear();
  db->Close();

  opts.mode = RunMode::kSimulated;
  auto sim = Database::Open(opts);
  EXPECT_EQ(sim->parallel_runtime(), nullptr);
  for (int p = 0; p < P; ++p) EXPECT_EQ(sim->partition(p).node_id(), 1 + p);
  sim->Close();
}

// Session teardown hammered against its own completion callbacks: repeated
// create/burst/destroy cycles where the dtor's drain runs while the workers
// are still delivering completions. The callbacks touch the session's
// guarded state, so the drain waiter may free the session the instant the
// last completion drops outstanding to zero — nothing on the worker side may
// touch it after that notify. Run under TSan to check the discipline.
TEST(ParallelSession, TeardownRacesCompletionCallbacks) {
  const KvWorkloadOptions mb = SmallConfig(4, 0.25);
  auto db = Database::Open(SmallDb(mb, "speculation", RunMode::kParallel, 4));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  for (int cycle = 0; cycle < 50; ++cycle) {
    auto session = db->CreateSession();
    std::atomic<int> completed{0};
    for (int i = 0; i < 16; ++i) {
      const SubmitResult sr =
          session->Submit(proc, i % 4 == 0 ? MpArgs(mb, cycle % 4) : SpArgs(mb, cycle % 4, i % 2),
                          [&](const TxnResult&) { completed++; });
      ASSERT_TRUE(sr.accepted);
    }
    // No explicit Drain: destruction itself races the in-flight completions.
    session.reset();
    EXPECT_EQ(completed.load(), 16) << "cycle " << cycle;
  }
  // Every teardown drained to true quiescence: no mailbox item was left
  // queued (or leaked mid-push), and the park/wake discipline held — wakes
  // fire only at parked consumers, so parks bound wakes from above. Session
  // completion precedes trailing backup/coordinator bookkeeping messages, so
  // wait for the runtime itself to drain before counting.
  ASSERT_TRUE(db->parallel_runtime()->WaitQuiescent(std::chrono::seconds(30)));
  const ParallelRuntime::Stats rs = db->Stats().runtime;
  EXPECT_EQ(rs.mailbox_pushed, rs.mailbox_popped);
  EXPECT_GT(rs.mailbox_parks, 0u);
  EXPECT_LE(rs.mailbox_wakes, rs.mailbox_parks);
  db->Close();
}

}  // namespace
}  // namespace partdb

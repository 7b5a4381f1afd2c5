// Tests for the runtime layer: deterministic-simulation regression (same
// seed => bit-identical run), the parallel runtime's MPSC mailbox ordering
// guarantees, and sim-vs-parallel commit-log replay equivalence.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "kv/kv_procedures.h"
#include "runtime/actor.h"
#include "runtime/mailbox.h"
#include "runtime/parallel_runtime.h"
#include "test_util.h"

namespace partdb {
namespace {

// ---------------------------------------------------------------------------
// Determinism regression: two databases built from the same config and seed
// must produce identical measurement metrics and process exactly the same
// number of simulator events. Guards the ExecutionContext refactor — the
// discrete-event path must stay bit-for-bit reproducible.

struct SimRunResult {
  Metrics metrics;
  uint64_t events = 0;
  std::vector<uint64_t> state_hashes;
};

SimRunResult RunSimOnce(const std::string& scheme, uint64_t seed) {
  KvWorkloadOptions mb;
  mb.num_partitions = 3;
  mb.num_clients = 12;
  mb.mp_fraction = 0.2;

  auto db = Database::Open(KvDbOptions(mb, scheme, RunMode::kSimulated, seed));
  ClosedLoopOptions loop;
  loop.num_clients = mb.num_clients;
  loop.next = KvInvocations(mb, *db);
  loop.warmup = Micros(20000);
  loop.measure = Micros(100000);
  SimRunResult r;
  r.metrics = RunClosedLoop(*db, loop);
  db->Close();
  r.events = db->sim().events_processed();
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    r.state_hashes.push_back(db->engine(p).StateHash());
  }
  return r;
}

TEST(Determinism, SameSeedSameRun) {
  for (const char* scheme :
       {"speculation", "locking", "blocking"}) {
    SCOPED_TRACE(scheme);
    SimRunResult a = RunSimOnce(scheme, 777);
    SimRunResult b = RunSimOnce(scheme, 777);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.metrics.committed, b.metrics.committed);
    EXPECT_EQ(a.metrics.sp_committed, b.metrics.sp_committed);
    EXPECT_EQ(a.metrics.mp_committed, b.metrics.mp_committed);
    EXPECT_EQ(a.metrics.user_aborts, b.metrics.user_aborts);
    EXPECT_EQ(a.metrics.speculative_execs, b.metrics.speculative_execs);
    EXPECT_EQ(a.metrics.lock_waits, b.metrics.lock_waits);
    EXPECT_EQ(a.metrics.partition_busy_ns, b.metrics.partition_busy_ns);
    EXPECT_EQ(a.metrics.coord_busy_ns, b.metrics.coord_busy_ns);
    EXPECT_EQ(a.metrics.Summary(), b.metrics.Summary());
    EXPECT_EQ(a.state_hashes, b.state_hashes);
    EXPECT_GT(a.metrics.committed, 0u);
  }
}

TEST(Determinism, DifferentSeedDifferentRun) {
  SimRunResult a = RunSimOnce("speculation", 1);
  SimRunResult b = RunSimOnce("speculation", 2);
  // Event counts colliding would be a one-in-a-million fluke; state hashes
  // differ because clients draw different keys and values.
  EXPECT_NE(a.state_hashes, b.state_hashes);
}

// ---------------------------------------------------------------------------
// MPSC mailbox smoke: FIFO per producer under concurrent senders, nothing
// lost, batched drains. The heavy stress / wake-accounting / node-recycling
// suites live in tests/mailbox_test.cc.

TEST(Mailbox, FifoPerProducerUnderConcurrentSenders) {
  constexpr int kProducers = 4;
  constexpr uint32_t kPerProducer = 20000;
  Mailbox box;

  std::vector<std::thread> producers;
  for (int src = 0; src < kProducers; ++src) {
    producers.emplace_back([&box, src]() {
      for (uint32_t seq = 0; seq < kPerProducer; ++seq) {
        Message m;
        m.src = src;
        m.dst = 0;
        m.body = TimerFire{MakeTxnId(src, seq), 0};
        box.PushMessage(std::move(m));
      }
    });
  }

  // Single consumer: per-producer sequence numbers must arrive in order.
  std::vector<uint32_t> next(kProducers, 0);
  uint64_t received = 0;
  uint64_t batches = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (received < static_cast<uint64_t>(kProducers) * kPerProducer) {
    const size_t got = box.DrainUntil(deadline, 64, [&](MailboxNode* n) {
      ASSERT_EQ(n->kind, MailboxNode::Kind::kMessage);
      const auto& t = std::get<TimerFire>(n->msg.body);
      const int src = TxnClient(t.txn_id);
      const uint32_t seq = TxnSeq(t.txn_id);
      ASSERT_EQ(seq, next[src]) << "out-of-order delivery from producer " << src;
      next[src] = seq + 1;
      ++received;
    });
    ASSERT_GT(got, 0u) << "timed out after " << received;
    ++batches;
  }
  for (auto& p : producers) p.join();
  EXPECT_TRUE(box.Empty());
  EXPECT_EQ(box.pushed(), box.popped());
  // The whole point of batching: far fewer drains than messages.
  EXPECT_LT(batches, received);
}

TEST(Mailbox, DrainUntilTimesOutWhenEmpty) {
  Mailbox box;
  size_t drained = 0;
  EXPECT_EQ(box.DrainUntil(std::chrono::steady_clock::now() + std::chrono::milliseconds(5), 64,
                           [&](MailboxNode*) { ++drained; }),
            0u);
  EXPECT_EQ(drained, 0u);
  EXPECT_TRUE(box.Empty());
}

// Tagged-union item kinds travel intact: messages and control closures
// drain in push order with their payloads.
TEST(Mailbox, CarriesAllItemKindsInOrder) {
  Mailbox box;
  Message m;
  m.src = 7;
  m.dst = 0;
  m.body = TimerFire{MakeTxnId(7, 1), 0};
  box.PushMessage(std::move(m));
  bool control_ran = false;
  box.PushControl([&control_ran]() { control_ran = true; });

  std::vector<MailboxNode::Kind> kinds;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  box.DrainUntil(deadline, 64, [&](MailboxNode* n) {
    kinds.push_back(n->kind);
    if (n->kind == MailboxNode::Kind::kMessage) {
      EXPECT_EQ(n->msg.src, 7);
      EXPECT_EQ(std::get<TimerFire>(n->msg.body).txn_id, MakeTxnId(7, 1));
    } else if (n->kind == MailboxNode::Kind::kControl) {
      n->control();
    }
  });
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], MailboxNode::Kind::kMessage);
  EXPECT_EQ(kinds[1], MailboxNode::Kind::kControl);
  EXPECT_TRUE(control_ran);
}

// ---------------------------------------------------------------------------
// WaitQuiescent counts work that is queued behind the handler running now:
// an actor sends itself a chain of messages, and the chain ends in a timer
// that messages an actor on another worker. Quiescence may be reported only
// after that last handler ran.

constexpr uint64_t kSelfSends = 200;

class Chainer : public Actor {
 public:
  explicit Chainer(NodeId peer) : Actor("chainer"), peer_(peer) {}

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override {
    if (std::holds_alternative<TimerFire>(msg.body)) {
      ctx.Send(peer_, DecisionMessage{std::get<TimerFire>(msg.body).txn_id, 0, true});
      return;
    }
    const TxnId hop = std::get<DecisionMessage>(msg.body).txn_id;
    if (hop < kSelfSends) {
      ctx.Send(node_id(), DecisionMessage{hop + 1, 0, true});
    } else {
      ctx.SetTimer(3 * kMillisecond, TimerFire{hop, 0});
    }
  }

 private:
  NodeId peer_;
};

class LastStop : public Actor {
 public:
  LastStop() : Actor("last-stop") {}
  std::atomic<int> arrivals{0};

 protected:
  void OnMessage(Message& /*msg*/, ActorContext& /*ctx*/) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    arrivals.fetch_add(1, std::memory_order_release);
  }
};

TEST(ParallelRuntime, WaitQuiescentWaitsOutSelfSendsAndTimers) {
  constexpr int kRounds = 10;
  ParallelRuntime rt(2);
  rt.MapNode(0, 0);
  rt.MapNode(1, 1);
  Chainer chainer(/*peer=*/1);
  LastStop last;
  chainer.Bind(&rt, 0);
  last.Bind(&rt, 1);
  rt.Start();
  for (int round = 1; round <= kRounds; ++round) {
    Message kick;
    kick.src = 1;
    kick.dst = 0;
    kick.body = DecisionMessage{0, 0, true};
    rt.Send(std::move(kick), 0);
    ASSERT_TRUE(rt.WaitQuiescent(std::chrono::seconds(30))) << "round " << round;
    EXPECT_EQ(last.arrivals.load(std::memory_order_acquire), round)
        << "quiescent before the timer's message was handled";
  }
  const ParallelRuntime::Stats s = rt.GetStats();
  EXPECT_EQ(s.mailbox_pushed, s.mailbox_popped);
  rt.Stop();
}

// ---------------------------------------------------------------------------
// A timer handler arms the next timer, three deep: each arm happens while
// the worker is firing due timers, so the new entry joins the heap being
// drained. Every timer must fire on the owner's thread, no earlier than its
// delay, in order, and quiescence may be reported only after the third.

class TimerChain : public Actor {
 public:
  static constexpr uint64_t kLinks = 3;
  static constexpr Duration kDelay = 2 * kMillisecond;

  TimerChain() : Actor("timer-chain") {}

  struct Firing {
    uint64_t link = 0;
    Time armed_at = 0;
    Time fired_at = 0;
    std::thread::id thread;
  };

  // Written on the owner's worker only; read after WaitQuiescent.
  std::thread::id owner;
  std::vector<Firing> firings;

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override {
    if (const auto* t = std::get_if<TimerFire>(&msg.body)) {
      firings.push_back({t->txn_id, armed_at_, ctx.start(), std::this_thread::get_id()});
      if (t->txn_id < kLinks) Arm(t->txn_id + 1, ctx);
      return;
    }
    owner = std::this_thread::get_id();
    Arm(1, ctx);
  }

 private:
  void Arm(uint64_t link, ActorContext& ctx) {
    armed_at_ = ctx.now();
    ctx.SetTimer(kDelay, TimerFire{link, 0});
  }

  Time armed_at_ = 0;
};

TEST(ParallelRuntime, TimerArmedByATimerHandlerFires) {
  ParallelRuntime rt(2);
  rt.MapNode(0, 0);
  rt.MapNode(1, 1);
  TimerChain chain;
  LastStop other;
  chain.Bind(&rt, 0);
  other.Bind(&rt, 1);
  rt.Start();
  Message kick;
  kick.src = 1;
  kick.dst = 0;
  kick.body = DecisionMessage{0, 0, true};
  rt.Send(std::move(kick), 0);
  ASSERT_TRUE(rt.WaitQuiescent(std::chrono::seconds(30)));

  ASSERT_EQ(chain.firings.size(), TimerChain::kLinks) << "quiescent before the chain ended";
  for (uint64_t i = 0; i < TimerChain::kLinks; ++i) {
    const TimerChain::Firing& f = chain.firings[i];
    EXPECT_EQ(f.link, i + 1);
    EXPECT_GE(f.fired_at, f.armed_at + TimerChain::kDelay) << "link " << f.link;
    EXPECT_EQ(f.thread, chain.owner) << "link " << f.link;
  }
  rt.Stop();
}

// ---------------------------------------------------------------------------
// Parallel runtime: the same workload/seed runs on real threads; both modes
// must satisfy final-state serializability (serial replay of each partition's
// commit log reproduces the live engine state), and multi-partition commit
// order must be consistent across partitions.

KvRun RunKvDb(const KvWorkloadOptions& mb, const std::string& scheme, RunMode mode,
              uint64_t seed,
              Duration warmup, Duration measure) {
  DbOptions opts = KvDbOptions(mb, scheme, mode, seed);
  opts.log_commits = true;
  return RunKvClosedLoop(std::move(opts), mb, warmup, measure);
}

void CheckReplayEquivalence(Database& db) {
  const EngineFactory& factory = db.options().engine_factory;
  std::vector<const std::vector<CommitRecord>*> logs;
  for (PartitionId p = 0; p < db.options().num_partitions; ++p) {
    EXPECT_EQ(db.engine(p).StateHash(),
              ExpectCleanReplayStateHash(factory, p, db.commit_log(p)))
        << "partition " << p << " diverges from serial replay";
    logs.push_back(&db.commit_log(p));
  }
  ExpectMpOrderConsistent(logs, db.options().scheme);
}

TEST(ParallelRuntime, SpeculativeCommitsAndReplaysSerially) {
  KvWorkloadOptions mb;
  mb.num_partitions = 4;
  mb.num_clients = 16;
  mb.mp_fraction = 0.15;

  KvRun run = RunKvDb(mb, "speculation", RunMode::kParallel, 4242,
                      Micros(20000), Micros(150000));

  EXPECT_GT(run.metrics.committed, 0u);
  EXPECT_GT(run.metrics.mp_committed, 0u);
  EXPECT_GT(run.metrics.window_ns, 0);
  CheckReplayEquivalence(*run.db);
}

TEST(ParallelRuntime, SimAndParallelAgreeOnSerialReplayState) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 8;
  mb.mp_fraction = 0.2;

  // Simulated run of the workload/seed.
  KvRun sim_run = RunKvDb(mb, "speculation", RunMode::kSimulated, 99,
                          Micros(10000), Micros(50000));
  EXPECT_GT(sim_run.metrics.committed, 0u);
  CheckReplayEquivalence(*sim_run.db);

  // Parallel run of the same workload/seed. Thread interleavings differ from
  // the virtual-clock schedule, so the committed sets differ — but both must
  // be serializable over the same engines, which replay verifies.
  KvRun par_run = RunKvDb(mb, "speculation", RunMode::kParallel, 99,
                          Micros(10000), Micros(50000));
  EXPECT_GT(par_run.metrics.committed, 0u);
  CheckReplayEquivalence(*par_run.db);
}

TEST(ParallelRuntime, LockingSchemeRunsOnThreads) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 8;
  mb.mp_fraction = 0.1;

  KvRun run = RunKvDb(mb, "locking", RunMode::kParallel, 5, Micros(10000),
                      Micros(50000));
  EXPECT_GT(run.metrics.committed, 0u);
  CheckReplayEquivalence(*run.db);
}

}  // namespace
}  // namespace partdb

// Tests for the runtime layer: deterministic-simulation regression (same
// seed => bit-identical run), the parallel runtime's MPSC mailbox ordering
// guarantees, its worker outboxes (nothing stranded at a park, per-sender
// FIFO under batching, sends into another runtime), and sim-vs-parallel
// commit-log replay equivalence.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
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
// A worker with nothing to drain parks until its next timer is due, not until
// a push or its 100 ms cap: an idle worker arms a 2 ms timer, parks, and
// must fire it on time. The median lateness of 20 tries must stay under
// 20 ms, which a park that ignores its deadline fails.

class TimerProbe : public Actor {
 public:
  static constexpr Duration kDelay = 2 * kMillisecond;

  TimerProbe() : Actor("timer-probe") {}

  // Written on the owner's worker only; read after WaitQuiescent.
  Time armed_at = 0;
  Time fired_at = 0;

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override {
    if (std::holds_alternative<TimerFire>(msg.body)) {
      fired_at = ctx.start();
      return;
    }
    armed_at = ctx.now();
    ctx.SetTimer(kDelay, TimerFire{0, 0});
  }
};

TEST(ParallelRuntime, ParkedWorkerFiresItsTimerOnTime) {
  constexpr int kTries = 20;
  TimerProbe probe;
  ParallelRuntime rt(1);
  rt.MapNode(0, 0);
  probe.Bind(&rt, 0);
  rt.Start();
  std::vector<Time> late;
  for (int i = 0; i < kTries; ++i) {
    probe.fired_at = 0;
    Message kick;
    kick.src = 0;
    kick.dst = 0;
    kick.body = DecisionMessage{static_cast<TxnId>(i), 0, true};
    rt.Send(std::move(kick), 0);
    ASSERT_TRUE(rt.WaitQuiescent(std::chrono::seconds(30))) << "try " << i;
    ASSERT_GE(probe.fired_at, probe.armed_at + TimerProbe::kDelay) << "try " << i;
    late.push_back(probe.fired_at - probe.armed_at - TimerProbe::kDelay);
  }
  EXPECT_GT(rt.GetStats().mailbox_parks, 0u);
  rt.Stop();
  std::sort(late.begin(), late.end());
  EXPECT_LT(late[kTries / 2], 20 * kMillisecond)
      << "median lateness " << late[kTries / 2] / kMillisecond << " ms";
}

// ---------------------------------------------------------------------------
// A worker's sends wait in its outbox until it flushes. A timer that fires on
// an otherwise idle worker runs at the top of the worker loop, outside any
// drained batch, and the send its handler makes must still leave before the
// worker parks again: quiescence may be reported only after the peer on the
// other worker handled it.

class TimerSender : public Actor {
 public:
  explicit TimerSender(NodeId peer) : Actor("timer-sender"), peer_(peer) {}

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override {
    if (const auto* t = std::get_if<TimerFire>(&msg.body)) {
      ctx.Send(peer_, DecisionMessage{t->txn_id, 0, true});
      return;
    }
    ctx.SetTimer(kMillisecond, TimerFire{std::get<DecisionMessage>(msg.body).txn_id, 0});
  }

 private:
  NodeId peer_;
};

TEST(ParallelRuntime, TimerHandlerSendIsNotStrandedInTheOutbox) {
  constexpr int kRounds = 5;
  // Actors first, so the runtime stops its workers before they go away even
  // when an assertion returns early.
  TimerSender sender(/*peer=*/1);
  LastStop peer;
  ParallelRuntime rt(2);
  rt.MapNode(0, 0);
  rt.MapNode(1, 1);
  sender.Bind(&rt, 0);
  peer.Bind(&rt, 1);
  rt.Start();
  for (int round = 1; round <= kRounds; ++round) {
    Message kick;
    kick.src = 1;
    kick.dst = 0;
    kick.body = DecisionMessage{static_cast<TxnId>(round), 0, true};
    rt.Send(std::move(kick), 0);
    ASSERT_TRUE(rt.WaitQuiescent(std::chrono::seconds(30))) << "round " << round;
    ASSERT_EQ(peer.arrivals.load(std::memory_order_acquire), round)
        << "quiescent with the timer handler's send still buffered";
  }
  const ParallelRuntime::Stats s = rt.GetStats();
  EXPECT_EQ(s.mailbox_pushed, s.mailbox_popped);
  rt.Stop();
}

// ---------------------------------------------------------------------------
// Per-sender FIFO under batching: one actor fans bursts out to actors on two
// other workers and to itself while a foreign thread sends to the same
// actors. Every (src, dst) stream must arrive complete and in order, and the
// mailbox counters must balance at quiescence.

constexpr NodeId kForeignSrc = 9;  // the test thread's messages carry this src

class StreamChecker : public Actor {
 public:
  StreamChecker(std::vector<NodeId> fanout, uint64_t burst)
      : Actor("stream-checker"), fanout_(std::move(fanout)), burst_(burst) {}

  struct Stream {
    uint64_t received = 0;
    uint64_t out_of_order = 0;
  };
  // Written on the owner's worker only; read after WaitQuiescent.
  std::map<NodeId, Stream> streams;

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override {
    if (std::holds_alternative<TimerFire>(msg.body)) {  // a kick: send a burst
      for (uint64_t i = 0; i < burst_; ++i, ++sent_) {
        for (NodeId dst : fanout_) ctx.Send(dst, DecisionMessage{sent_, 0, true});
      }
      return;
    }
    Stream& st = streams[msg.src];
    if (std::get<DecisionMessage>(msg.body).txn_id != st.received) ++st.out_of_order;
    ++st.received;
  }

 private:
  std::vector<NodeId> fanout_;
  uint64_t burst_;
  uint64_t sent_ = 0;
};

TEST(ParallelRuntime, BatchedSendsKeepPerSenderFifo) {
  constexpr int kKicks = 200;
  constexpr uint64_t kBurst = 16;
  StreamChecker fanner({1, 2, 0}, kBurst);
  StreamChecker a({}, 0);
  StreamChecker b({}, 0);
  ParallelRuntime rt(3);
  for (NodeId n = 0; n < 3; ++n) rt.MapNode(n, n);
  fanner.Bind(&rt, 0);
  a.Bind(&rt, 1);
  b.Bind(&rt, 2);
  rt.Start();
  uint64_t foreign_seq = 0;
  for (int k = 0; k < kKicks; ++k) {
    Message kick;
    kick.src = kForeignSrc;
    kick.dst = 0;
    kick.body = TimerFire{static_cast<TxnId>(k), 0};
    rt.Send(std::move(kick), 0);
    for (uint64_t i = 0; i < kBurst; ++i, ++foreign_seq) {
      for (NodeId dst = 0; dst < 3; ++dst) {
        Message m;
        m.src = kForeignSrc;
        m.dst = dst;
        m.body = DecisionMessage{foreign_seq, 0, true};
        rt.Send(std::move(m), 0);
      }
    }
  }
  ASSERT_TRUE(rt.WaitQuiescent(std::chrono::seconds(60)));

  const uint64_t per_stream = kKicks * kBurst;
  for (const StreamChecker* c : {&fanner, &a, &b}) {
    ASSERT_EQ(c->streams.size(), 2u) << "node " << c->node_id();
    for (const NodeId src : {NodeId{0}, kForeignSrc}) {
      const StreamChecker::Stream& st = c->streams.at(src);
      EXPECT_EQ(st.received, per_stream) << src << " -> " << c->node_id();
      EXPECT_EQ(st.out_of_order, 0u) << src << " -> " << c->node_id();
    }
  }
  const ParallelRuntime::Stats s = rt.GetStats();
  EXPECT_EQ(s.mailbox_pushed, s.mailbox_popped);
  // The fanner's bursts left in bulk: fewer lock acquisitions than messages.
  EXPECT_LT(s.mailbox_push_batches, s.mailbox_pushed);
  rt.Stop();
}

// ---------------------------------------------------------------------------
// A handler on runtime A's worker may send into runtime B, as a completion
// callback on one database submitting into another does. The message is
// B's: it must be pushed into B's mailbox, not buffered in A's outbox (which
// would hand it to A's worker of the same index).

class Forwarder : public Actor {
 public:
  Forwarder(ParallelRuntime* to, NodeId dst) : Actor("forwarder"), to_(to), dst_(dst) {}

 protected:
  void OnMessage(Message& msg, ActorContext& /*ctx*/) override {
    Message m;
    m.src = node_id();
    m.dst = dst_;
    m.body = msg.body;
    to_->Send(std::move(m), 0);
  }

 private:
  ParallelRuntime* to_;
  NodeId dst_;
};

TEST(ParallelRuntime, SendFromAnotherRuntimesWorkerReachesItsNode) {
  constexpr int kSends = 5;
  ParallelRuntime rt_b(2);
  Forwarder forwarder(&rt_b, /*dst=*/1);
  LastStop wrong;  // A's node 1: must receive nothing
  LastStop right;  // B's node 1
  ParallelRuntime rt_a(2);
  rt_a.MapNode(0, 0);
  rt_a.MapNode(1, 1);
  rt_b.MapNode(1, 1);
  forwarder.Bind(&rt_a, 0);
  wrong.Bind(&rt_a, 1);
  right.Bind(&rt_b, 1);
  rt_a.Start();
  rt_b.Start();
  for (int i = 0; i < kSends; ++i) {
    Message m;
    m.src = 1;
    m.dst = 0;
    m.body = DecisionMessage{static_cast<TxnId>(i), 0, true};
    rt_a.Send(std::move(m), 0);
  }
  ASSERT_TRUE(rt_a.WaitQuiescent(std::chrono::seconds(30)));
  ASSERT_TRUE(rt_b.WaitQuiescent(std::chrono::seconds(30)));
  EXPECT_EQ(right.arrivals.load(std::memory_order_acquire), kSends);
  EXPECT_EQ(wrong.arrivals.load(std::memory_order_acquire), 0);
  rt_a.Stop();
  rt_b.Stop();
}

// ---------------------------------------------------------------------------
// Parallel runtime: the same workload/seed runs on real threads; both modes
// must pass CheckSerializable (the commit logs form one acyclic conflict
// history whose serial replay reproduces the live engine state).

KvRun RunKvDb(const KvWorkloadOptions& mb, const std::string& scheme, RunMode mode,
              uint64_t seed,
              Duration warmup, Duration measure) {
  DbOptions opts = KvDbOptions(mb, scheme, mode, seed);
  opts.log_commits = true;
  return RunKvClosedLoop(std::move(opts), mb, warmup, measure);
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
  EXPECT_EQ(CheckSerializable(*run.db), "");
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
  EXPECT_EQ(CheckSerializable(*sim_run.db), "");

  // Parallel run of the same workload/seed. Thread interleavings differ from
  // the virtual-clock schedule, so the committed sets differ — but both must
  // be serializable over the same engines, which CheckSerializable checks.
  KvRun par_run = RunKvDb(mb, "speculation", RunMode::kParallel, 99,
                          Micros(10000), Micros(50000));
  EXPECT_GT(par_run.metrics.committed, 0u);
  EXPECT_EQ(CheckSerializable(*par_run.db), "");
}

TEST(ParallelRuntime, LockingSchemeRunsOnThreads) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 8;
  mb.mp_fraction = 0.1;

  KvRun run = RunKvDb(mb, "locking", RunMode::kParallel, 5, Micros(10000),
                      Micros(50000));
  EXPECT_GT(run.metrics.committed, 0u);
  EXPECT_EQ(CheckSerializable(*run.db), "");
}

}  // namespace
}  // namespace partdb

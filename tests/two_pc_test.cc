// Pins both 2PC drivers against scripted participants: the central
// coordinator (paper §3.3, with the §4.2.2 dependency gate and stale
// speculation filter) and the session under locking (§4.3, with system-abort
// retry). Each test binds the actor under test to a Simulator beside
// recording participant actors, then plays the participants' responses by
// hand and checks what the actor sends next.
#include <memory>
#include <utility>
#include <vector>

#include "client/session_actor.h"
#include "coord/coordinator_actor.h"
#include "gtest/gtest.h"
#include "runtime/actor.h"
#include "sim/network.h"
#include "sim/sim_context.h"
#include "sim/simulator.h"

namespace partdb {
namespace {

struct IntPayload : Payload {
  explicit IntPayload(int v) : v(v) {}
  size_t ByteSize() const override { return 8; }
  int v;
};

PayloadPtr Int(int v) { return std::make_shared<IntPayload>(v); }

int IntOf(const PayloadPtr& p) { return p == nullptr ? -1 : PayloadCast<IntPayload>(*p).v; }

// A participant (or client) that only records what it receives; the test
// plays its part by injecting messages in its name.
class Recorder : public Actor {
 public:
  explicit Recorder(std::string name) : Actor(std::move(name)) {}
  std::vector<FragmentRequest> frags;
  std::vector<Time> frag_at;
  std::vector<DecisionMessage> decisions;
  std::vector<Time> decision_at;
  std::vector<ClientResponse> replies;

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override {
    if (auto* f = std::get_if<FragmentRequest>(&msg.body)) {
      frags.push_back(*f);
      frag_at.push_back(ctx.start());
    }
    if (auto* d = std::get_if<DecisionMessage>(&msg.body)) {
      decisions.push_back(*d);
      decision_at.push_back(ctx.start());
    }
    if (auto* r = std::get_if<ClientResponse>(&msg.body)) replies.push_back(*r);
  }
};

// Records every NextRoundInput call and answers with 100 + the sum of the
// previous round's results.
class SumContinuations : public TxnContinuations {
 public:
  struct Call {
    ProcId proc;
    int round;
    std::vector<std::pair<PartitionId, int>> prev;
  };
  std::vector<Call> calls;

  PayloadPtr NextRoundInput(ProcId proc, const Payload& /*args*/, int round,
                            const std::vector<std::pair<PartitionId, PayloadPtr>>& prev) override {
    Call c{proc, round, {}};
    int sum = 100;
    for (const auto& [p, r] : prev) {
      c.prev.emplace_back(p, IntOf(r));
      sum += IntOf(r);
    }
    calls.push_back(std::move(c));
    return Int(sum);
  }
};

constexpr int kParts = 3;

// Node layout: 0 = actor under test, 1..kParts = participants (partition
// p at node p + 1), kParts + 1 = client (coordinator tests only).
class TwoPcHarness {
 public:
  TwoPcHarness() : net_(NetCfg()), exec_(&sim_, &net_), client_("client") {
    for (const char* name : {"p0", "p1", "p2"}) parts_.push_back(std::make_unique<Recorder>(name));
  }

  static NetworkConfig NetCfg() {
    NetworkConfig cfg;
    cfg.one_way_latency = Micros(10);
    cfg.ns_per_byte = 0;
    return cfg;
  }

  void BindAll(Actor* under_test) {
    under_test->Bind(&exec_, 0);
    for (int p = 0; p < kParts; ++p) parts_[p]->Bind(&exec_, p + 1);
    client_.Bind(&exec_, kParts + 1);
  }

  std::vector<NodeId> PartitionNodes() const {
    std::vector<NodeId> nodes;
    for (int p = 0; p < kParts; ++p) nodes.push_back(p + 1);
    return nodes;
  }

  Recorder& part(PartitionId p) { return *parts_[p]; }
  Recorder& client() { return client_; }
  Simulator& sim() { return sim_; }

  /// Delivers `body` to the actor under test as if sent by `src`, and runs
  /// the simulation until it is quiet again.
  void Inject(NodeId src, MessageBody body) {
    Message m;
    m.src = src;
    m.dst = 0;
    m.body = std::move(body);
    exec_.Send(std::move(m), sim_.Now());
    sim_.Run();
  }

  /// Partition `p`'s response to one fragment.
  void Respond(PartitionId p, TxnId id, uint32_t attempt, int round, Vote vote,
               PayloadPtr result = nullptr, uint32_t epoch = 0, TxnId depends_on = kInvalidTxn,
               bool system_abort = false) {
    FragmentResponse r;
    r.txn_id = id;
    r.attempt = attempt;
    r.round = round;
    r.partition = p;
    r.vote = vote;
    r.epoch = epoch;
    r.depends_on = depends_on;
    r.system_abort = system_abort;
    r.result = std::move(result);
    Inject(p + 1, std::move(r));
  }

  size_t TotalDecisions() const {
    size_t n = 0;
    for (const auto& p : parts_) n += p->decisions.size();
    return n;
  }

 private:
  Simulator sim_;
  Network net_;
  SimContext exec_;
  std::vector<std::unique_ptr<Recorder>> parts_;
  Recorder client_;
};

// --- The session as 2PC coordinator (locking) --------------------------------

class SessionTwoPc : public ::testing::Test {
 protected:
  void Open(bool durable_notices) {
    Topology topo;
    topo.partition_primary = h_.PartitionNodes();
    topo.coordinator = kParts + 1;  // unused under locking
    topo.durable_notices = durable_notices;
    CcSchemeCapabilities caps;
    caps.client_coordinated_2pc = true;
    ProcRouter router = [this](ProcId, const Payload&) { return route_; };
    session_ = std::make_unique<SessionActor>("session", std::move(router), &cont_, topo, caps,
                                              CostModel{}, /*seed=*/7);
    session_->set_metrics(&metrics_);
    h_.BindAll(session_.get());
  }

  /// Submits one MP transaction and runs until its round-0 fragments are out.
  TxnId Submit(PartitionList parts, int rounds) {
    route_.participants = std::move(parts);
    route_.rounds = rounds;
    SubmitResult s = session_->Submit(/*proc=*/0, Int(1), [this](const TxnResult& r) {
      results_.push_back(r);
    });
    EXPECT_TRUE(s.accepted);
    h_.sim().Run();
    return s.txn_id;
  }

  TwoPcHarness h_;
  SumContinuations cont_;
  TxnRouting route_;  // what the router returns for the next Submit
  Metrics metrics_;
  std::unique_ptr<SessionActor> session_;
  std::vector<TxnResult> results_;
};

TEST_F(SessionTwoPc, SystemAbortVoteRetriesAfterBackoffAndIgnoresTheOldAttempt) {
  Open(/*durable_notices=*/false);
  const TxnId id = Submit({0, 1}, 1);
  for (PartitionId p : {0, 1}) {
    ASSERT_EQ(h_.part(p).frags.size(), 1u);
    const FragmentRequest& f = h_.part(p).frags[0];
    EXPECT_EQ(f.txn_id, id);
    EXPECT_EQ(f.attempt, 0u);
    EXPECT_EQ(f.round, 0);
    EXPECT_TRUE(f.last_round);
    EXPECT_TRUE(f.multi_partition);
    EXPECT_EQ(f.coordinator, 0);
  }

  h_.Respond(0, id, 0, 0, Vote::kCommit);
  EXPECT_EQ(h_.TotalDecisions(), 0u);
  h_.Respond(1, id, 0, 0, Vote::kAbort, nullptr, 0, kInvalidTxn, /*system_abort=*/true);

  // Abort decisions for attempt 0 to every participant, then (after the
  // backoff timer, which Inject's Run also drains) round 0 again as attempt 1.
  for (PartitionId p : {0, 1}) {
    ASSERT_EQ(h_.part(p).decisions.size(), 1u);
    EXPECT_EQ(h_.part(p).decisions[0].txn_id, id);
    EXPECT_EQ(h_.part(p).decisions[0].attempt, 0u);
    EXPECT_FALSE(h_.part(p).decisions[0].commit);
    ASSERT_EQ(h_.part(p).frags.size(), 2u);
    EXPECT_EQ(h_.part(p).frags[1].attempt, 1u);
    EXPECT_EQ(h_.part(p).frags[1].round, 0);
    EXPECT_TRUE(h_.part(p).frags[1].last_round);
    EXPECT_GT(h_.part(p).frag_at[1], h_.part(p).decision_at[0]);
  }
  EXPECT_TRUE(results_.empty());
  EXPECT_EQ(metrics_.txn_retries, 1u);

  // A late attempt-0 vote is ignored: it neither fills partition 1's slot
  // nor aborts attempt 1.
  h_.Respond(1, id, 0, 0, Vote::kAbort);
  EXPECT_EQ(h_.TotalDecisions(), 2u);
  EXPECT_TRUE(results_.empty());

  h_.Respond(0, id, 1, 0, Vote::kCommit, Int(5));
  EXPECT_EQ(h_.TotalDecisions(), 2u);
  h_.Respond(1, id, 1, 0, Vote::kCommit);
  for (PartitionId p : {0, 1}) {
    ASSERT_EQ(h_.part(p).decisions.size(), 2u);
    EXPECT_EQ(h_.part(p).decisions[1].attempt, 1u);
    EXPECT_TRUE(h_.part(p).decisions[1].commit);
  }
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_TRUE(results_[0].committed);
  EXPECT_EQ(results_[0].attempts, 2u);
  EXPECT_EQ(IntOf(results_[0].payload), 5);
  EXPECT_EQ(metrics_.txn_retries, 1u);
  EXPECT_EQ(metrics_.mp_committed, 1u);
  EXPECT_EQ(session_->outstanding(), 0u);
}

TEST_F(SessionTwoPc, TwoRoundsFeedTheContinuationAndReturnTheFirstResult) {
  Open(/*durable_notices=*/false);
  // Participant order differs from partition order and from arrival order.
  const TxnId id = Submit({2, 0, 1}, 2);
  for (PartitionId p : {0, 1, 2}) {
    ASSERT_EQ(h_.part(p).frags.size(), 1u);
    EXPECT_FALSE(h_.part(p).frags[0].last_round);
    EXPECT_EQ(h_.part(p).frags[0].round_input, nullptr);
  }

  h_.Respond(1, id, 0, 0, Vote::kNone, Int(10));
  h_.Respond(0, id, 0, 0, Vote::kNone, Int(20));
  EXPECT_TRUE(cont_.calls.empty());
  h_.Respond(2, id, 0, 0, Vote::kNone, Int(30));

  ASSERT_EQ(cont_.calls.size(), 1u);
  EXPECT_EQ(cont_.calls[0].round, 1);
  EXPECT_EQ(cont_.calls[0].prev,
            (std::vector<std::pair<PartitionId, int>>{{2, 30}, {0, 20}, {1, 10}}));
  for (PartitionId p : {0, 1, 2}) {
    ASSERT_EQ(h_.part(p).frags.size(), 2u);
    const FragmentRequest& f = h_.part(p).frags[1];
    EXPECT_EQ(f.round, 1);
    EXPECT_TRUE(f.last_round);
    EXPECT_EQ(f.attempt, 0u);
    EXPECT_EQ(IntOf(f.round_input), 160);
  }
  EXPECT_EQ(h_.TotalDecisions(), 0u);

  // A round-0 straggler does not count toward round 1.
  h_.Respond(1, id, 0, 0, Vote::kNone, Int(10));
  h_.Respond(1, id, 0, 1, Vote::kCommit, Int(7));
  h_.Respond(0, id, 0, 1, Vote::kCommit, Int(8));
  // A second response for a filled slot is ignored.
  h_.Respond(0, id, 0, 1, Vote::kCommit, Int(99));
  EXPECT_TRUE(results_.empty());
  h_.Respond(2, id, 0, 1, Vote::kCommit, nullptr);

  ASSERT_EQ(results_.size(), 1u);
  EXPECT_TRUE(results_[0].committed);
  EXPECT_EQ(results_[0].attempts, 1u);
  // First non-null in participant order {2, 0, 1}: partition 0's.
  EXPECT_EQ(IntOf(results_[0].payload), 8);
  EXPECT_EQ(h_.TotalDecisions(), 3u);
}

TEST_F(SessionTwoPc, UserAbortCompletesWithoutRetry) {
  Open(/*durable_notices=*/false);
  const TxnId id = Submit({0, 1}, 1);
  h_.Respond(0, id, 0, 0, Vote::kAbort, Int(3));
  h_.Respond(1, id, 0, 0, Vote::kCommit, Int(4));
  for (PartitionId p : {0, 1}) {
    ASSERT_EQ(h_.part(p).decisions.size(), 1u);
    EXPECT_FALSE(h_.part(p).decisions[0].commit);
    EXPECT_EQ(h_.part(p).frags.size(), 1u);
  }
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_FALSE(results_[0].committed);
  EXPECT_EQ(results_[0].attempts, 1u);
  EXPECT_EQ(results_[0].payload, nullptr);
  EXPECT_EQ(metrics_.txn_retries, 0u);
  EXPECT_EQ(metrics_.user_aborts, 1u);
}

TEST_F(SessionTwoPc, DurableCommitWaitsForTheLastNotice) {
  Open(/*durable_notices=*/true);
  const TxnId id = Submit({0, 1}, 1);
  h_.Respond(0, id, 0, 0, Vote::kCommit, Int(9));
  h_.Respond(1, id, 0, 0, Vote::kCommit);
  EXPECT_EQ(h_.TotalDecisions(), 2u);
  EXPECT_TRUE(results_.empty());

  h_.Inject(1, DurableNotice{id});
  EXPECT_TRUE(results_.empty());
  h_.Inject(2, DurableNotice{id});
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_TRUE(results_[0].committed);
  EXPECT_EQ(IntOf(results_[0].payload), 9);
}

// --- The central coordinator (speculation, blocking, occ, mvcc) --------------

class CoordinatorTwoPc : public ::testing::Test {
 protected:
  void Open(bool durable_notices) {
    coord_ = std::make_unique<CoordinatorActor>("coordinator", CostModel{}, &cont_,
                                                h_.PartitionNodes(), durable_notices);
    h_.BindAll(coord_.get());
  }

  void Request(TxnId id, PartitionList parts, int rounds = 1) {
    ClientRequest r;
    r.txn_id = id;
    r.proc = 4;
    r.args = Int(1);
    r.participants = std::move(parts);
    r.num_rounds = rounds;
    h_.Inject(kParts + 1, std::move(r));
  }

  /// (txn, commit) of every decision partition `p` received, in order.
  std::vector<std::pair<TxnId, bool>> Decisions(PartitionId p) {
    std::vector<std::pair<TxnId, bool>> out;
    for (const auto& d : h_.part(p).decisions) out.emplace_back(d.txn_id, d.commit);
    return out;
  }

  TwoPcHarness h_;
  SumContinuations cont_;
  std::unique_ptr<CoordinatorActor> coord_;
};

TEST_F(CoordinatorTwoPc, OrdersFragmentsAndSendsEveryRound) {
  Open(/*durable_notices=*/false);
  Request(1, {1, 0}, 2);
  Request(2, {0, 1});
  for (PartitionId p : {0, 1}) {
    ASSERT_EQ(h_.part(p).frags.size(), 2u);
    EXPECT_EQ(h_.part(p).frags[0].txn_id, 1u);
    EXPECT_EQ(h_.part(p).frags[0].global_seq, 1u);
    EXPECT_FALSE(h_.part(p).frags[0].last_round);
    EXPECT_EQ(h_.part(p).frags[0].proc, 4);
    EXPECT_TRUE(h_.part(p).frags[0].multi_partition);
    EXPECT_EQ(h_.part(p).frags[0].coordinator, 0);
    EXPECT_EQ(h_.part(p).frags[1].txn_id, 2u);
    EXPECT_EQ(h_.part(p).frags[1].global_seq, 2u);
    EXPECT_TRUE(h_.part(p).frags[1].last_round);
  }
  EXPECT_EQ(coord_->transactions_ordered(), 2u);

  h_.Respond(0, 1, 0, 0, Vote::kNone, Int(1));
  h_.Respond(1, 1, 0, 0, Vote::kNone, Int(2));
  ASSERT_EQ(cont_.calls.size(), 1u);
  EXPECT_EQ(cont_.calls[0].proc, 4);
  EXPECT_EQ(cont_.calls[0].prev, (std::vector<std::pair<PartitionId, int>>{{1, 2}, {0, 1}}));
  for (PartitionId p : {0, 1}) {
    ASSERT_EQ(h_.part(p).frags.size(), 3u);
    EXPECT_EQ(h_.part(p).frags[2].round, 1);
    EXPECT_TRUE(h_.part(p).frags[2].last_round);
    EXPECT_EQ(IntOf(h_.part(p).frags[2].round_input), 103);
  }
  h_.Respond(0, 1, 0, 1, Vote::kCommit, Int(11));
  h_.Respond(1, 1, 0, 1, Vote::kCommit, Int(12));
  ASSERT_EQ(h_.client().replies.size(), 1u);
  EXPECT_EQ(h_.client().replies[0].txn_id, 1u);
  EXPECT_TRUE(h_.client().replies[0].committed);
  EXPECT_EQ(IntOf(h_.client().replies[0].result), 12);  // participant order {1, 0}
}

TEST_F(CoordinatorTwoPc, AbortDropsStoredOlderEpochResponsesUntilTheResend) {
  Open(/*durable_notices=*/false);
  Request(1, {0, 1});
  Request(2, {0, 1});

  // Txn 2's response from partition 0 is stored, speculated behind txn 1.
  h_.Respond(0, 2, 0, 0, Vote::kCommit, Int(20), /*epoch=*/0);
  // Txn 1 aborts: both partitions roll back and re-execute txn 2.
  h_.Respond(0, 1, 0, 0, Vote::kAbort, nullptr, 0);
  h_.Respond(1, 1, 0, 0, Vote::kCommit, nullptr, 0);
  EXPECT_EQ(Decisions(0), (std::vector<std::pair<TxnId, bool>>{{1, false}}));
  EXPECT_EQ(Decisions(1), (std::vector<std::pair<TxnId, bool>>{{1, false}}));
  ASSERT_EQ(h_.client().replies.size(), 1u);
  EXPECT_FALSE(h_.client().replies[0].committed);

  // A pre-abort response that arrives now is dropped as well.
  h_.Respond(1, 2, 0, 0, Vote::kCommit, Int(21), /*epoch=*/0);
  // Partition 1's re-executed response: partition 0's stored one no longer
  // counts, so the round is still incomplete.
  h_.Respond(1, 2, 1, 0, Vote::kCommit, Int(21), /*epoch=*/1);
  EXPECT_EQ(h_.TotalDecisions(), 2u);
  EXPECT_EQ(h_.client().replies.size(), 1u);

  // Partition 0's resend completes the round.
  h_.Respond(0, 2, 1, 0, Vote::kCommit, Int(22), /*epoch=*/1);
  EXPECT_EQ(Decisions(0), (std::vector<std::pair<TxnId, bool>>{{1, false}, {2, true}}));
  EXPECT_EQ(Decisions(1), (std::vector<std::pair<TxnId, bool>>{{1, false}, {2, true}}));
  ASSERT_EQ(h_.client().replies.size(), 2u);
  EXPECT_EQ(h_.client().replies[1].txn_id, 2u);
  EXPECT_TRUE(h_.client().replies[1].committed);
  EXPECT_EQ(IntOf(h_.client().replies[1].result), 22);
}

TEST_F(CoordinatorTwoPc, UndecidedDependencyParksTheTransactionUntilItsDecision) {
  Open(/*durable_notices=*/false);
  Request(1, {0, 1});
  Request(2, {0, 1});

  h_.Respond(0, 2, 0, 0, Vote::kCommit, Int(20), 0, /*depends_on=*/1);
  h_.Respond(1, 2, 0, 0, Vote::kCommit, Int(21), 0);
  EXPECT_EQ(h_.TotalDecisions(), 0u);
  EXPECT_TRUE(h_.client().replies.empty());

  h_.Respond(0, 1, 0, 0, Vote::kCommit, Int(10));
  EXPECT_EQ(h_.TotalDecisions(), 0u);
  h_.Respond(1, 1, 0, 0, Vote::kCommit, Int(11));
  for (PartitionId p : {0, 1}) {
    EXPECT_EQ(Decisions(p), (std::vector<std::pair<TxnId, bool>>{{1, true}, {2, true}}));
  }
  ASSERT_EQ(h_.client().replies.size(), 2u);
  EXPECT_EQ(h_.client().replies[0].txn_id, 1u);
  EXPECT_EQ(IntOf(h_.client().replies[0].result), 10);
  EXPECT_EQ(h_.client().replies[1].txn_id, 2u);
  EXPECT_EQ(IntOf(h_.client().replies[1].result), 20);
}

TEST_F(CoordinatorTwoPc, DurableCommitReplyWaitsForEveryNotice) {
  Open(/*durable_notices=*/true);
  Request(1, {0, 2});
  h_.Respond(0, 1, 0, 0, Vote::kCommit, Int(30));
  h_.Respond(2, 1, 0, 0, Vote::kCommit, Int(31));
  EXPECT_EQ(h_.TotalDecisions(), 2u);
  EXPECT_TRUE(h_.client().replies.empty());
  // A late response for the decided transaction changes nothing.
  h_.Respond(0, 1, 0, 0, Vote::kAbort);

  h_.Inject(3, DurableNotice{1});
  EXPECT_TRUE(h_.client().replies.empty());
  h_.Inject(1, DurableNotice{1});
  ASSERT_EQ(h_.client().replies.size(), 1u);
  EXPECT_TRUE(h_.client().replies[0].committed);
  EXPECT_EQ(IntOf(h_.client().replies[0].result), 30);
}

TEST_F(CoordinatorTwoPc, HeldCommitKeepsItsResultAndReleasesItsDependents) {
  Open(/*durable_notices=*/true);
  // Txn 1 commits and is held for its notices; only partition 0 returns a
  // result, so forgetting partition 0's response would lose it.
  Request(1, {0, 2});
  h_.Respond(0, 1, 0, 0, Vote::kCommit, Int(30));
  h_.Respond(2, 1, 0, 0, Vote::kCommit);
  EXPECT_EQ(Decisions(0), (std::vector<std::pair<TxnId, bool>>{{1, true}}));
  EXPECT_TRUE(h_.client().replies.empty());

  // A response that depends on the held txn 1 is not parked: txn 1 is
  // decided, so txn 2 commits at once.
  Request(2, {0, 1});
  h_.Respond(0, 2, 0, 0, Vote::kCommit, Int(40), 0, /*depends_on=*/1);
  h_.Respond(1, 2, 0, 0, Vote::kCommit, Int(41));
  EXPECT_EQ(Decisions(0), (std::vector<std::pair<TxnId, bool>>{{1, true}, {2, true}}));
  EXPECT_EQ(Decisions(1), (std::vector<std::pair<TxnId, bool>>{{2, true}}));

  // Txn 3 aborts at partition 0, which txns 1 and 2 share: their stored
  // responses are decided, not stale.
  Request(3, {0, 1});
  h_.Respond(0, 3, 0, 0, Vote::kAbort);
  h_.Respond(1, 3, 0, 0, Vote::kCommit);
  ASSERT_EQ(h_.client().replies.size(), 1u);
  EXPECT_EQ(h_.client().replies[0].txn_id, 3u);
  EXPECT_FALSE(h_.client().replies[0].committed);

  h_.Inject(1, DurableNotice{1});
  h_.Inject(3, DurableNotice{1});
  ASSERT_EQ(h_.client().replies.size(), 2u);
  EXPECT_EQ(h_.client().replies[1].txn_id, 1u);
  EXPECT_TRUE(h_.client().replies[1].committed);
  EXPECT_EQ(IntOf(h_.client().replies[1].result), 30);

  h_.Inject(1, DurableNotice{2});
  h_.Inject(2, DurableNotice{2});
  ASSERT_EQ(h_.client().replies.size(), 3u);
  EXPECT_EQ(h_.client().replies[2].txn_id, 2u);
  EXPECT_TRUE(h_.client().replies[2].committed);
  EXPECT_EQ(IntOf(h_.client().replies[2].result), 40);
}

}  // namespace
}  // namespace partdb

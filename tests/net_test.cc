// Loopback end-to-end tests for the network tier: DbServer + RemoteSession
// over 127.0.0.1 running the KV mix and the full TPC-C mix across all four
// concurrency-control schemes through the SAME driver code the embedded path
// uses (RunClosedLoop over a DbHandle — no per-transport branches), with
// CheckSerializable on the server's commit logs. Plus:
// remote Execute result payloads, measurement windows over the wire,
// admission-control parity between embedded and remote sessions, a
// custom (non-KV, non-TPC-C) procedure served over TCP, and the event
// loop's scheduling policy and wakes.
#include <poll.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/closed_loop.h"
#include "gtest/gtest.h"
#include "net/db_server.h"
#include "net/remote_db.h"
#include "one_cpu_scope.h"
#include "test_util.h"
#include "tpcc/tpcc_consistency.h"
#include "tpcc/tpcc_procedures.h"

namespace partdb {
namespace {

constexpr const char* kAllSchemes[] = {"blocking", "speculation", "locking", "occ",
                                       "mvcc"};

KvWorkloadOptions NetKvConfig() {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 8;
  mb.mp_fraction = 0.2;
  mb.abort_prob = 0.02;
  return mb;
}

// The KV microbenchmark mix over TCP, one closed-loop client per remote
// session, for every scheme — the identical RunClosedLoop call the embedded
// figure harnesses make, replay-verified serializable on the server.
TEST(NetLoopback, KvMixAllSchemesReplayVerified) {
  const KvWorkloadOptions mb = NetKvConfig();
  for (const char* scheme : kAllSchemes) {
    DbOptions opts = KvDbOptions(mb, scheme, RunMode::kParallel, 12345);
    opts.log_commits = true;
    auto db = Database::Open(std::move(opts));
    DbServer server(db.get());

    ConnectOptions copts;
    copts.procedures.push_back(KvReadUpdateProcedure(mb));
    auto remote = Connect("127.0.0.1", server.port(), std::move(copts));
    ClosedLoopOptions loop;
    loop.num_clients = mb.num_clients;
    loop.next = KvInvocations(mb, *remote);
    loop.warmup = 20 * kMillisecond;
    loop.measure = 100 * kMillisecond;
    const Metrics m = RunClosedLoop(*remote, loop);
    EXPECT_GT(m.committed, 0u) << scheme;
    EXPECT_GT(m.window_ns, 0) << scheme;

    remote.reset();
    server.Stop();
    db->Close();
    EXPECT_EQ(CheckSerializable(*db), "") << scheme;
  }
}

// Full five-transaction TPC-C mix over TCP for every scheme, replay-verified
// and TPC-C-consistency-checked on the server database.
TEST(NetLoopback, TpccFullMixAllSchemesReplayVerified) {
  tpcc::TpccWorkloadConfig wl;
  wl.scale.num_warehouses = 4;
  wl.scale.num_partitions = 2;
  wl.scale.items = 200;
  wl.scale.customers_per_district = 30;
  wl.scale.initial_orders_per_district = 30;
  const int clients = 8;

  for (const char* scheme : kAllSchemes) {
    DbOptions opts = tpcc::TpccDbOptions(wl.scale, scheme, RunMode::kParallel, clients, 7);
    opts.log_commits = true;
    auto db = Database::Open(std::move(opts));
    DbServer server(db.get());

    ConnectOptions copts;
    copts.procedures = tpcc::TpccProcedures(wl.scale);
    auto remote = Connect("127.0.0.1", server.port(), std::move(copts));
    ClosedLoopOptions loop;
    loop.num_clients = clients;
    loop.next = tpcc::TpccInvocations(wl, *remote);
    loop.warmup = 20 * kMillisecond;
    loop.measure = 150 * kMillisecond;
    const Metrics m = RunClosedLoop(*remote, loop);
    EXPECT_GT(m.committed, 0u) << scheme;

    remote.reset();
    server.Stop();
    db->Close();

    EXPECT_EQ(CheckSerializable(*db), "") << scheme;
    std::vector<const tpcc::TpccDb*> dbs;
    for (PartitionId p = 0; p < wl.scale.num_partitions; ++p) {
      dbs.push_back(&static_cast<tpcc::TpccEngine&>(db->engine(p)).db());
    }
    EXPECT_TRUE(tpcc::CheckConsistency(dbs).empty()) << scheme;
  }
}

// Remote Execute round trip: the result payload (the values the transaction
// read) crosses the wire and decodes back, and user aborts surface exactly
// like embedded ones.
TEST(NetLoopback, ExecuteReturnsDecodedResultPayload) {
  KvWorkloadOptions mb = NetKvConfig();
  mb.abort_prob = 0.0;
  auto db = Database::Open(KvDbOptions(mb, "speculation", RunMode::kParallel,
                                       12345));
  DbServer server(db.get());
  ConnectOptions copts;
  copts.procedures.push_back(KvReadUpdateProcedure(mb));
  auto remote = Connect("127.0.0.1", server.port(), std::move(copts));
  auto session = remote->CreateSession();

  auto args = [&mb](bool abort_txn) {
    auto a = std::make_shared<KvArgs>();
    a->keys.resize(mb.num_partitions);
    for (int i = 0; i < 4; ++i) a->keys[0].push_back(MicrobenchKey(0, 0, i));
    a->abort_txn = abort_txn;
    return a;
  };

  // First run reads the pre-loaded counters (0), second reads the
  // incremented ones (1): real server state, observed through the wire.
  TxnResult r1 = session->Execute(kKvReadUpdateProc, args(false));
  ASSERT_TRUE(r1.committed);
  ASSERT_NE(r1.payload, nullptr);
  EXPECT_EQ(PayloadCast<KvResult>(*r1.payload).values, std::vector<uint64_t>(4, 0));

  TxnResult r2 = session->Execute("kv_read_update", args(false));
  ASSERT_TRUE(r2.committed);
  EXPECT_EQ(PayloadCast<KvResult>(*r2.payload).values, std::vector<uint64_t>(4, 1));

  TxnResult r3 = session->Execute(kKvReadUpdateProc, args(true));
  EXPECT_FALSE(r3.committed);
  EXPECT_EQ(r3.payload, nullptr);

  session.reset();
  remote.reset();
  server.Stop();
  db->Close();
}

// Measurement windows over the control channel: the remote handle's
// Begin/EndMeasurement drive the server's window, and the returned Metrics
// (histograms and per-procedure outcomes included) survive the wire.
TEST(NetLoopback, MeasurementWindowOverControlChannel) {
  const KvWorkloadOptions mb = NetKvConfig();
  auto db = Database::Open(KvDbOptions(mb, "speculation", RunMode::kParallel,
                                       12345));
  DbServer server(db.get());
  ConnectOptions copts;
  copts.procedures.push_back(KvReadUpdateProcedure(mb));
  auto remote = Connect("127.0.0.1", server.port(), std::move(copts));
  auto session = remote->CreateSession();

  auto args = [&mb] {
    auto a = std::make_shared<KvArgs>();
    a->keys.resize(mb.num_partitions);
    for (int i = 0; i < 4; ++i) a->keys[1].push_back(MicrobenchKey(1, 1, i));
    return a;
  };
  remote->BeginMeasurement();
  const int kTxns = 25;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(session->Execute(kKvReadUpdateProc, args()).committed);
  }
  const Metrics m = remote->EndMeasurement();
  EXPECT_EQ(m.committed, static_cast<uint64_t>(kTxns));
  EXPECT_EQ(m.sp_committed, static_cast<uint64_t>(kTxns));
  EXPECT_EQ(m.sp_latency.count(), static_cast<uint64_t>(kTxns));
  EXPECT_GT(m.sp_latency.Percentile(50), 0.0);
  ASSERT_EQ(m.procs.size(), 1u);
  EXPECT_EQ(m.procs[0].committed, static_cast<uint64_t>(kTxns));
  EXPECT_EQ(m.procs[0].latency.count(), static_cast<uint64_t>(kTxns));
  EXPECT_GT(m.window_ns, 0);
  EXPECT_EQ(m.num_partitions, mb.num_partitions);

  session.reset();
  remote.reset();
  server.Stop();
  db->Close();
}

// --- admission-control parity ------------------------------------------------

/// A deliberately slow single-partition procedure (custom engine, custom
/// payloads with codecs): holds its partition for sleep_ms so the admission
/// bound is observable deterministically — and doubles as proof that
/// user-defined procedures are servable over TCP, not just KV/TPC-C.
struct SlowArgs : public Payload {
  uint32_t sleep_ms = 0;
  void SerializeTo(WireWriter& w) const override { w.U32(sleep_ms); }
};

struct SlowResult : public Payload {
  uint32_t echoed = 0;
  void SerializeTo(WireWriter& w) const override { w.U32(echoed); }
};

class SlowEngine : public Engine {
 public:
  ExecResult Execute(const Payload& args, int /*round*/, const Payload* /*round_input*/,
                     UndoBuffer* /*undo*/, WorkMeter* /*meter*/) override {
    const auto& a = PayloadCast<SlowArgs>(args);
    std::this_thread::sleep_for(std::chrono::milliseconds(a.sleep_ms));
    auto res = std::make_shared<SlowResult>();
    res->echoed = a.sleep_ms;
    ExecResult r;
    r.result = res;
    return r;
  }
  void LockSet(const Payload& /*args*/, int /*round*/,
               std::vector<LockRequest>* /*out*/) const override {}
  uint64_t StateHash() const override { return 0; }
};

DbOptions SlowDb(uint64_t max_inflight) {
  DbOptions opts;
  opts.scheme = "speculation";
  opts.mode = RunMode::kParallel;
  opts.num_partitions = 1;
  opts.max_sessions = 2;
  opts.max_inflight_per_session = max_inflight;
  opts.engine_factory = [](PartitionId) { return std::make_unique<SlowEngine>(); };
  ProcedureDescriptor d;
  d.name = "slow";
  d.route = [](const Payload&) {
    TxnRouting r;
    r.participants.push_back(0);
    return r;
  };
  d.make_args = [] { return std::make_shared<SlowArgs>(); };
  d.decode_args_into = [](WireReader& r, Payload* into) {
    static_cast<SlowArgs*>(into)->sleep_ms = r.U32();
    return r.ok();
  };
  d.decode_result = [](WireReader& r) -> PayloadPtr {
    auto res = std::make_shared<SlowResult>();
    res->echoed = r.U32();
    return r.ok() ? res : nullptr;
  };
  opts.procedures.push_back(std::move(d));
  return opts;
}

/// Submits 2 slow transactions then 2 more while both admission slots are
/// held; returns the per-submission accept pattern plus the completion count.
std::vector<bool> AdmissionPattern(Session& session, ProcId proc) {
  std::atomic<int> completed{0};
  std::vector<bool> accepted;
  for (int i = 0; i < 4; ++i) {
    auto args = std::make_shared<SlowArgs>();
    args->sleep_ms = 100;
    const SubmitResult sr =
        session.Submit(proc, std::move(args), [&](const TxnResult&) { completed++; });
    accepted.push_back(sr.accepted);
  }
  session.Drain();
  EXPECT_EQ(completed.load(), 2);  // exactly the admitted ones ran

  // Slots freed: the next submission is admitted again.
  auto args = std::make_shared<SlowArgs>();
  args->sleep_ms = 0;
  const SubmitResult sr = session.Submit(proc, std::move(args), nullptr);
  accepted.push_back(sr.accepted);
  session.Drain();
  return accepted;
}

// The bounded-in-flight overload signal is identical embedded and remote:
// same accept/reject pattern from the same submission sequence.
TEST(AdmissionControl, EmbeddedAndRemoteSessionsHonorTheSameBound) {
  const std::vector<bool> want = {true, true, false, false, true};

  auto db = Database::Open(SlowDb(/*max_inflight=*/2));
  const ProcId proc = db->proc("slow");
  {
    auto session = db->CreateSession();
    EXPECT_EQ(AdmissionPattern(*session, proc), want) << "embedded";
  }

  DbServer server(db.get());
  ConnectOptions copts;
  copts.procedures = SlowDb(2).procedures;
  auto remote = Connect("127.0.0.1", server.port(), std::move(copts));
  EXPECT_EQ(remote->max_inflight(), 2u);  // handshake carried the bound
  {
    auto session = remote->CreateSession();
    EXPECT_EQ(AdmissionPattern(*session, remote->proc("slow")), want) << "remote";
  }

  remote.reset();
  server.Stop();
  db->Close();
}

// --- multiplexed ingress -----------------------------------------------------

int CountProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  ADD_FAILURE() << "no Threads: line in /proc/self/status";
  return -1;
}

std::shared_ptr<KvArgs> OneKeyArgs(const KvWorkloadOptions& mb) {
  auto a = std::make_shared<KvArgs>();
  a->keys.resize(mb.num_partitions);
  for (int i = 0; i < 4; ++i) a->keys[0].push_back(MicrobenchKey(0, 0, i));
  return a;
}

// The tentpole property: server thread count is a function of num_loops, not
// of how many clients connect. 128 concurrent connections (each carrying one
// session that executes a transaction) must not add a single server thread
// beyond the N event loops + 1 acceptor that already existed.
TEST(NetMux, ManyConnectionsConstantServerThreads) {
  KvWorkloadOptions mb = NetKvConfig();
  mb.abort_prob = 0.0;
  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 12345);
  opts.max_sessions = 140;
  auto db = Database::Open(std::move(opts));
  DbServerOptions sopts;
  sopts.num_loops = 2;
  DbServer server(db.get(), sopts);
  EXPECT_EQ(server.num_loops(), 2);

  ConnectOptions copts;
  copts.procedures.push_back(KvReadUpdateProcedure(mb));
  copts.sessions_per_conn = 1;  // force one TCP connection per session
  auto remote = Connect("127.0.0.1", server.port(), std::move(copts));

  // Everything is warm (loops, acceptor, session workers, client loop) after
  // the first session round-trips.
  std::vector<std::unique_ptr<Session>> sessions;
  sessions.push_back(remote->CreateSession());
  ASSERT_TRUE(sessions[0]->Execute(kKvReadUpdateProc, OneKeyArgs(mb)).committed);
  const int threads_before = CountProcessThreads();

  constexpr int kConns = 128;
  for (int i = 1; i < kConns; ++i) sessions.push_back(remote->CreateSession());
  for (auto& s : sessions) {
    ASSERT_TRUE(s->Execute(kKvReadUpdateProc, OneKeyArgs(mb)).committed);
  }
  EXPECT_EQ(remote->conn_count(), static_cast<size_t>(kConns));
  EXPECT_EQ(CountProcessThreads(), threads_before)
      << kConns << " connections must not change the thread count";

  const DbServerStats stats = server.Stats();
  EXPECT_EQ(stats.accepted_conns, static_cast<uint64_t>(kConns));
  EXPECT_EQ(stats.active_conns, static_cast<uint64_t>(kConns));
  EXPECT_EQ(stats.sessions_opened, static_cast<uint64_t>(kConns));
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.rejected_requests, 0u);

  sessions.clear();
  remote.reset();
  server.Stop();
  const DbServerStats after = server.Stats();
  EXPECT_EQ(after.active_conns, 0u);
  EXPECT_EQ(after.reaped_conns, after.accepted_conns);
  EXPECT_EQ(after.sessions_closed, after.sessions_opened);
  db->Close();
}

// Many sessions multiplex over ONE TCP connection (protocol v2 session ids),
// and a concurrent closed-loop run over them commits on every session.
TEST(NetMux, ManySessionsShareOneConnection) {
  KvWorkloadOptions mb = NetKvConfig();
  mb.num_clients = 24;
  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 12345);
  opts.max_sessions = 32;
  opts.log_commits = true;
  auto db = Database::Open(std::move(opts));
  DbServer server(db.get());

  ConnectOptions copts;
  copts.procedures.push_back(KvReadUpdateProcedure(mb));
  auto remote = Connect("127.0.0.1", server.port(), std::move(copts));

  ClosedLoopOptions loop;
  loop.num_clients = mb.num_clients;
  loop.next = KvInvocations(mb, *remote);
  loop.warmup = 10 * kMillisecond;
  loop.measure = 100 * kMillisecond;
  const Metrics m = RunClosedLoop(*remote, loop);
  EXPECT_GT(m.committed, 0u);
  EXPECT_EQ(remote->conn_count(), 1u) << "sessions_per_conn=0 must share one connection";
  EXPECT_EQ(server.Stats().accepted_conns, 1u);

  remote.reset();
  server.Stop();
  db->Close();
  EXPECT_EQ(CheckSerializable(*db), "");
}

// CloseSession releases the server-side slot in order with the same
// connection's traffic: with max_sessions=1, serial create/use/destroy
// cycles never collide with their predecessor's slot.
TEST(NetMux, SessionSlotsRecycleViaCloseSession) {
  KvWorkloadOptions mb = NetKvConfig();
  mb.abort_prob = 0.0;
  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 12345);
  opts.max_sessions = 1;
  auto db = Database::Open(std::move(opts));
  DbServer server(db.get());
  ConnectOptions copts;
  copts.procedures.push_back(KvReadUpdateProcedure(mb));
  auto remote = Connect("127.0.0.1", server.port(), std::move(copts));

  for (int i = 0; i < 6; ++i) {
    auto session = remote->CreateSession();
    ASSERT_TRUE(session->Execute(kKvReadUpdateProc, OneKeyArgs(mb)).committed) << "cycle " << i;
  }
  remote.reset();
  server.Stop();
  // Counted after Stop: the last CloseSession races the snapshot otherwise.
  const DbServerStats stats = server.Stats();
  EXPECT_EQ(stats.sessions_opened, 6u);
  EXPECT_EQ(stats.sessions_closed, 6u);
  EXPECT_EQ(stats.rejected_requests, 0u);
  db->Close();
}

// More logical sessions on one connection than the server has slots: the
// server refuses the second session's transaction, and the client completes
// it as refused (not executed, not committed) instead of aborting. The
// first session keeps working on the shared connection.
TEST(NetMux, RefusedSessionCompletesRejected) {
  KvWorkloadOptions mb = NetKvConfig();
  mb.abort_prob = 0.0;
  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 12345);
  opts.max_sessions = 1;
  auto db = Database::Open(std::move(opts));
  DbServer server(db.get());
  ConnectOptions copts;
  copts.procedures.push_back(KvReadUpdateProcedure(mb));
  auto remote = Connect("127.0.0.1", server.port(), std::move(copts));

  auto first = remote->CreateSession();
  ASSERT_TRUE(first->Execute(kKvReadUpdateProc, OneKeyArgs(mb)).committed);
  auto second = remote->CreateSession();
  TxnResult seen;
  int callbacks = 0;
  const auto on_done = [&](const TxnResult& res) {
    seen = res;
    ++callbacks;
  };
  ASSERT_TRUE(second->Submit(kKvReadUpdateProc, OneKeyArgs(mb), on_done).accepted);
  second->Drain();
  EXPECT_EQ(callbacks, 1);
  EXPECT_TRUE(seen.rejected);
  EXPECT_FALSE(seen.committed);
  EXPECT_EQ(second->outstanding(), 0u);
  // The refusal freed the client's admission slot, and the connection
  // both sessions share is still up.
  EXPECT_TRUE(second->Execute(kKvReadUpdateProc, OneKeyArgs(mb)).rejected);
  const TxnResult ok = first->Execute(kKvReadUpdateProc, OneKeyArgs(mb));
  EXPECT_TRUE(ok.committed);
  EXPECT_FALSE(ok.rejected);
  EXPECT_EQ(remote->conn_count(), 1u);

  second.reset();
  first.reset();
  remote.reset();
  server.Stop();
  EXPECT_EQ(server.Stats().rejected_requests, 2u);
  db->Close();
}

// Destroying a session that never submitted sends CloseSession for an id the
// server never bound (server sessions bind lazily on the first request). The
// server must treat that as a no-op, not a protocol error that drops the
// shared connection — the active session multiplexed on it keeps working.
TEST(NetMux, IdleSessionCloseKeepsSharedConnectionAlive) {
  KvWorkloadOptions mb = NetKvConfig();
  mb.abort_prob = 0.0;
  auto db = Database::Open(KvDbOptions(mb, "speculation", RunMode::kParallel,
                                       12345));
  DbServer server(db.get());
  ConnectOptions copts;
  copts.procedures.push_back(KvReadUpdateProcedure(mb));
  auto remote = Connect("127.0.0.1", server.port(), std::move(copts));

  auto active = remote->CreateSession();
  ASSERT_TRUE(active->Execute(kKvReadUpdateProc, OneKeyArgs(mb)).committed);
  {
    auto idle = remote->CreateSession();  // never submits; dtor sends CloseSession
  }
  // The connection both sessions share must have survived the unbound close.
  ASSERT_TRUE(active->Execute(kKvReadUpdateProc, OneKeyArgs(mb)).committed);
  EXPECT_EQ(remote->conn_count(), 1u);

  const DbServerStats stats = server.Stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.active_conns, 1u);
  EXPECT_EQ(stats.sessions_opened, 1u) << "the idle session must never bind server-side";

  active.reset();
  remote.reset();
  server.Stop();
  db->Close();
}

// Pipelining: a burst of submissions outstanding at once all complete, and
// the ingress counters account for them. More frames than flush syscalls on
// the client proves small writes actually coalesce.
TEST(NetMux, PipelinedSubmissionsCoalesceWrites) {
  KvWorkloadOptions mb = NetKvConfig();
  mb.abort_prob = 0.0;
  auto db = Database::Open(KvDbOptions(mb, "speculation", RunMode::kParallel,
                                       12345));
  DbServer server(db.get());
  ConnectOptions copts;
  copts.procedures.push_back(KvReadUpdateProcedure(mb));
  auto remote = Connect("127.0.0.1", server.port(), std::move(copts));
  auto session = remote->CreateSession();

  constexpr int kThreads = 8, kPerThread = 50;
  std::atomic<int> completed{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const SubmitResult sr = session->Submit(kKvReadUpdateProc, OneKeyArgs(mb),
                                                [&](const TxnResult&) { completed++; });
        ASSERT_TRUE(sr.accepted);
      }
    });
  }
  for (auto& t : submitters) t.join();
  session->Drain();
  EXPECT_EQ(completed.load(), kThreads * kPerThread);

  const EventLoopStats io = remote->IoStats();
  EXPECT_GE(io.frames_out, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GE(io.frames_in, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_LT(io.flush_batches, io.frames_out)
      << "a burst of concurrent submits must coalesce into fewer flushes";
  EXPECT_GT(io.bytes_in, 0u);
  EXPECT_GT(io.bytes_out, 0u);

  const DbServerStats stats = server.Stats();
  EXPECT_GE(stats.io.frames_in, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GE(stats.io.frames_out, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GT(stats.io.flush_batches, 0u);

  session.reset();
  remote.reset();
  server.Stop();
  db->Close();
}

// Teardown with responses still in flight on the loop thread: a pipelined
// burst is followed immediately by session destruction — whose drain waits
// out completions the loop thread is dispatching concurrently — and then by
// RemoteDatabase destruction, which stops the loop. Exercises the
// notify-under-lock teardown protocol (the loop thread's final notify must
// not touch the session after the drain waiter wakes and frees it); run it
// under TSan to check the discipline, not just the outcome.
TEST(NetMux, TeardownWithResponsesInFlight) {
  KvWorkloadOptions mb = NetKvConfig();
  mb.abort_prob = 0.0;
  auto db = Database::Open(
      KvDbOptions(mb, "speculation", RunMode::kParallel, 12345));
  DbServer server(db.get());

  for (int cycle = 0; cycle < 20; ++cycle) {
    ConnectOptions copts;
    copts.procedures.push_back(KvReadUpdateProcedure(mb));
    auto remote = Connect("127.0.0.1", server.port(), std::move(copts));
    auto session = remote->CreateSession();
    std::atomic<int> completed{0};
    for (int i = 0; i < 32; ++i) {
      const SubmitResult sr =
          session->Submit(kKvReadUpdateProc, OneKeyArgs(mb), [&](const TxnResult& r) {
            EXPECT_TRUE(r.committed);
            completed++;
          });
      ASSERT_TRUE(sr.accepted);
    }
    // No explicit Drain: the dtor's drain races the response dispatch, and
    // the whole handle goes down right behind it.
    session.reset();
    EXPECT_EQ(completed.load(), 32) << "cycle " << cycle;
    remote.reset();
  }

  const DbServerStats stats = server.Stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  server.Stop();
  db->Close();
}


// --- request-decode guard ----------------------------------------------------

/// True when the peer closed `conn`: it turns readable within 5 s and the
/// read hits EOF.
bool PeerClosed(TcpConn& conn) {
  pollfd pfd{conn.fd(), POLLIN, 0};
  if (::poll(&pfd, 1, /*timeout_ms=*/5000) != 1) return false;
  char c;
  return ::read(conn.fd(), &c, 1) == 0;
}

/// A kRequest body for session 1 naming `proc`, with `args` as its encoded
/// arguments.
std::string RequestBody(ProcId proc, const Payload& args) {
  RequestHeader h;
  h.session_id = 1;
  h.seq = 1;
  h.proc = proc;
  std::string body;
  WireWriter w(&body);
  AppendRequestBody(w, h, args);
  return body;
}

// Every way a well-framed request can carry bad arguments drops that one
// connection and counts one protocol error; none is refused as a rejected
// request, and a session on another connection keeps committing.
TEST(NetServer, MalformedRequestDropsOnlyItsConnection) {
  KvWorkloadOptions mb = NetKvConfig();
  mb.abort_prob = 0.0;
  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 12345);
  ProcedureDescriptor embedded_only;  // no args codec: not servable
  embedded_only.name = "embedded_only";
  embedded_only.route = opts.procedures[0].route;
  opts.procedures.push_back(std::move(embedded_only));
  auto db = Database::Open(std::move(opts));
  DbServer server(db.get());

  ConnectOptions copts;
  copts.procedures.push_back(KvReadUpdateProcedure(mb));
  auto remote = Connect("127.0.0.1", server.port(), std::move(copts));
  auto session = remote->CreateSession();
  ASSERT_TRUE(session->Execute(kKvReadUpdateProc, OneKeyArgs(mb)).committed);

  const ProcId kv = db->proc(kKvReadUpdateProc);
  const std::string valid = RequestBody(kv, *OneKeyArgs(mb));
  auto far = std::make_shared<KvArgs>();
  far->keys.resize(1001);
  far->keys[1000].push_back(MicrobenchKey(0, 0, 0));
  const struct {
    const char* name;
    std::string body;
  } cases[] = {
      {"truncated args", valid.substr(0, valid.size() - 3)},
      {"trailing byte", valid + "x"},
      {"proc past the table",
       RequestBody(static_cast<ProcId>(db->registry().size()), *OneKeyArgs(mb))},
      {"proc without an args codec", RequestBody(db->proc("embedded_only"), *OneKeyArgs(mb))},
      {"args routed to partition 1000", RequestBody(kv, *far)},
  };
  uint64_t errors = server.Stats().protocol_errors;
  EXPECT_EQ(errors, 0u);
  for (const auto& c : cases) {
    TcpConn conn = TcpConn::ConnectTo("127.0.0.1", server.port());
    ASSERT_TRUE(conn.valid()) << c.name;
    Frame hello;
    ASSERT_TRUE(ReadFrame(conn, &hello)) << c.name;
    EXPECT_EQ(hello.type, FrameType::kHello) << c.name;
    ASSERT_TRUE(WriteFrame(conn, FrameType::kRequest, c.body)) << c.name;
    EXPECT_TRUE(PeerClosed(conn)) << c.name;
    EXPECT_EQ(server.Stats().protocol_errors, ++errors) << c.name;
  }
  EXPECT_EQ(server.Stats().rejected_requests, 0u);

  // The session's own connection never saw the bad frames.
  EXPECT_TRUE(session->Execute(kKvReadUpdateProc, OneKeyArgs(mb)).committed);
  EXPECT_EQ(remote->conn_count(), 1u);

  session.reset();
  remote.reset();
  server.Stop();
  db->Close();
}

// --- vanished peer -----------------------------------------------------------

// A peer that closes its socket with requests still running leaves a session
// whose destructor would wait those requests out. The loop thread must not:
// it keeps serving other connections, and the session's slot frees once the
// requests finish.
TEST(NetMux, VanishedPeerFreesItsSlotAfterItsRequestsFinish) {
  auto db = Database::Open(SlowDb(/*max_inflight=*/2));
  const ProcId slow = db->proc("slow");
  DbServer server(db.get());
  const auto slow_args = [](uint32_t sleep_ms) {
    auto a = std::make_shared<SlowArgs>();
    a->sleep_ms = sleep_ms;
    return a;
  };

  {
    TcpConn vanishing = TcpConn::ConnectTo("127.0.0.1", server.port());
    ASSERT_TRUE(vanishing.valid());
    Frame hello;
    ASSERT_TRUE(ReadFrame(vanishing, &hello));
    for (uint64_t seq = 0; seq < 2; ++seq) {
      RequestHeader h;
      h.session_id = 1;
      h.seq = seq;
      h.proc = slow;
      std::string body;
      WireWriter w(&body);
      AppendRequestBody(w, h, *slow_args(1000));
      ASSERT_TRUE(WriteFrame(vanishing, FrameType::kRequest, body));
    }
  }  // closed with both requests running (they take ~2 s on the one partition)
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.Stats().sessions_closed == 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.Stats().sessions_closed, 1u);

  // The loop thread is free: a malformed request on another connection is
  // dropped long before the vanished session's requests finish.
  const auto probe_start = std::chrono::steady_clock::now();
  TcpConn probe = TcpConn::ConnectTo("127.0.0.1", server.port());
  ASSERT_TRUE(probe.valid());
  Frame hello;
  ASSERT_TRUE(ReadFrame(probe, &hello));
  ASSERT_TRUE(WriteFrame(probe, FrameType::kRequest, "x"));
  EXPECT_TRUE(PeerClosed(probe));
  EXPECT_LT(std::chrono::steady_clock::now() - probe_start, std::chrono::milliseconds(1000))
      << "the loop thread waited for the vanished session's requests";

  // Once they finish, both slots can be taken again.
  ConnectOptions copts;
  copts.procedures = SlowDb(2).procedures;
  auto remote = Connect("127.0.0.1", server.port(), std::move(copts));
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < 2; ++i) sessions.push_back(remote->CreateSession());
  for (auto& s : sessions) {
    bool admitted = false;
    while (!admitted && std::chrono::steady_clock::now() < give_up) {
      admitted = !s->Execute(slow, slow_args(0)).rejected;
      if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(admitted) << "a session slot stayed taken";
  }

  const DbServerStats stats = server.Stats();
  EXPECT_EQ(stats.sessions_closed, 1u);
  EXPECT_EQ(stats.protocol_errors, 1u);

  sessions.clear();
  remote.reset();
  server.Stop();
  db->Close();
}

// --- close ordering ----------------------------------------------------------

// Frames queued before a connection closes reach the peer first: this thread
// sends a burst and stops the loop right behind it, and the peer reads every
// frame, in order, before the EOF. The connection's on_close runs once.
TEST(NetMux, FrameSentBeforeCloseReachesPeer) {
  constexpr uint32_t kFrames = 8;
  TcpListener listener = TcpListener::Listen("127.0.0.1", 0);
  TcpConn client = TcpConn::ConnectTo("127.0.0.1", listener.port());
  ASSERT_TRUE(client.valid());
  TcpConn served = listener.AcceptWithTimeout(/*timeout_ms=*/5000);
  ASSERT_TRUE(served.valid());

  std::atomic<int> closes{0};
  EventLoop loop("close-order");
  LoopConnHandlers handlers;
  handlers.on_frame = [](LoopConn&, const FrameView&) { return true; };
  handlers.on_close = [&closes](LoopConn&) { closes++; };
  LoopConnPtr conn = loop.AddConn(std::move(served), std::move(handlers));
  for (uint32_t i = 0; i < kFrames; ++i) {
    EXPECT_TRUE(conn->SendFrame(FrameType::kResponse, [i](WireWriter& w) { w.U32(i); }));
  }
  loop.Stop();
  EXPECT_EQ(closes.load(), 1);
  EXPECT_FALSE(conn->SendFrame(FrameType::kResponse, [](WireWriter& w) { w.U32(0); }))
      << "a closed connection still took a frame";

  for (uint32_t i = 0; i < kFrames; ++i) {
    Frame f;
    ASSERT_TRUE(ReadFrame(client, &f)) << "frame " << i << " was dropped by the close";
    EXPECT_EQ(f.type, FrameType::kResponse);
    WireReader r(f.body);
    EXPECT_EQ(r.U32(), i);
  }
  EXPECT_TRUE(PeerClosed(client));
}

// The loop thread runs under SCHED_BATCH, so its wakeup does not preempt
// the thread that sent the first frame of a burst (event_loop.h). On one CPU
// a partition worker that yield-spun before it found work would otherwise be
// preempted by every frame it sends, and each response would leave in a
// flush of its own.
TEST(NetMux, LoopThreadRunsUnderBatchPolicy) {
  TcpListener listener = TcpListener::Listen("127.0.0.1", 0);
  TcpConn client = TcpConn::ConnectTo("127.0.0.1", listener.port());
  ASSERT_TRUE(client.valid());
  TcpConn served = listener.AcceptWithTimeout(/*timeout_ms=*/5000);
  ASSERT_TRUE(served.valid());

  std::atomic<int> policy{-1};
  EventLoop loop("batch-policy");
  LoopConnHandlers handlers;
  handlers.on_frame = [&policy](LoopConn&, const FrameView&) {
    policy.store(sched_getscheduler(0));
    return true;
  };
  handlers.on_close = [](LoopConn&) {};
  loop.AddConn(std::move(served), std::move(handlers));
  ASSERT_TRUE(WriteFrame(client, FrameType::kRequest, "x"));
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (policy.load() == -1 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.Stop();
  EXPECT_EQ(policy.load(), SCHED_BATCH);
}

// --- loop wakes --------------------------------------------------------------

// The wake bound below holds when a round trip closes inside the loops'
// spin: in an optimized build it takes about 21 us on a 4-CPU host. An
// unoptimized or ASan or TSan build is slower (gcc Debug: about 100, 200
// and 500 us), so its loops park on many hops, and a Debug UBSan build
// under a full `ctest -j` passed 1000 wakes. Those builds skip the bound
// and keep every other check.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PARTDB_NET_TEST_SLOW_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PARTDB_NET_TEST_SLOW_SANITIZER 1
#endif
#if defined(__OPTIMIZE__) && !defined(PARTDB_NET_TEST_SLOW_SANITIZER)
constexpr bool kWakeBoundArmed = true;
#else
constexpr bool kWakeBoundArmed = false;
#endif

// Runs `round_trips` sequential Execute calls on one remote session and
// returns the client's plus the server's loop counters, read before either
// side stops. Every thread it starts inherits the caller's CPU mask.
EventLoopStats PingPongLoopStats(int round_trips) {
  KvWorkloadOptions mb = NetKvConfig();
  mb.abort_prob = 0.0;
  auto db = Database::Open(KvDbOptions(mb, "speculation", RunMode::kParallel, 12345));
  DbServer server(db.get());
  ConnectOptions copts;
  copts.procedures.push_back(KvReadUpdateProcedure(mb));
  auto remote = Connect("127.0.0.1", server.port(), std::move(copts));
  auto session = remote->CreateSession();
  int committed = 0;
  for (int i = 0; i < round_trips; ++i) {
    committed += session->Execute(kKvReadUpdateProc, OneKeyArgs(mb)).committed ? 1 : 0;
  }
  EXPECT_EQ(committed, round_trips);
  EventLoopStats io = remote->IoStats();
  io += server.Stats().io;
  session.reset();
  remote.reset();
  server.Stop();
  db->Close();
  return io;
}

// Each round trip crosses four loop hops: the client loop sends the request,
// the server loop reads it, the server loop sends the response, the client
// loop reads it. A loop that parked as soon as it ran dry would take an
// eventfd wake for each send, about one per frame on each side. A loop that
// yield-spins first sees the next frame inside the spin and takes none. On
// one CPU that holds only because the spinner yields to the thread it waits
// for. Without the spin the two loops take about 4000 wakes.
TEST(NetMux, PingPongTakesFewLoopWakes) {
  constexpr int kRoundTrips = 2000;
  {
    const EventLoopStats io = PingPongLoopStats(kRoundTrips);
    if (kWakeBoundArmed) {
      EXPECT_LT(io.wakeups, 1000u) << "unpinned, parks=" << io.parks;
    }
    EXPECT_LE(io.wakeups, io.parks) << "unpinned";
  }
  {
    OneCpuScope one_cpu;
    ASSERT_TRUE(one_cpu.pinned()) << "cannot pin the test thread";
    const EventLoopStats io = PingPongLoopStats(kRoundTrips);
    if (kWakeBoundArmed) {
      EXPECT_LT(io.wakeups, 1000u) << "one CPU, parks=" << io.parks;
    }
    EXPECT_LE(io.wakeups, io.parks) << "one CPU";
  }
}

// A loop that idled past its spin is parked in epoll_wait. A request from a
// thread that never sent before must still wake the parked client loop, and
// Stop must wake a parked server loop: a lost wake shows here as a request
// or a Stop that hangs.
TEST(NetMux, ParkedLoopWakesForForeignSend) {
  constexpr auto kIdle = std::chrono::milliseconds(20);
  constexpr auto kBound = std::chrono::seconds(1);
  KvWorkloadOptions mb = NetKvConfig();
  mb.abort_prob = 0.0;
  auto db = Database::Open(KvDbOptions(mb, "speculation", RunMode::kParallel, 12345));
  DbServer server(db.get());
  ConnectOptions copts;
  copts.procedures.push_back(KvReadUpdateProcedure(mb));
  auto remote = Connect("127.0.0.1", server.port(), std::move(copts));
  auto session = remote->CreateSession();
  ASSERT_TRUE(session->Execute(kKvReadUpdateProc, OneKeyArgs(mb)).committed);

  std::this_thread::sleep_for(kIdle);
  const uint64_t client_wakes = remote->IoStats().wakeups;
  std::atomic<bool> done{false};
  const auto sent_at = std::chrono::steady_clock::now();
  std::thread foreign([&] {
    const SubmitResult sr =
        session->Submit(kKvReadUpdateProc, OneKeyArgs(mb), [&done](const TxnResult& r) {
          EXPECT_TRUE(r.committed);
          done.store(true);
        });
    EXPECT_TRUE(sr.accepted);
  });
  foreign.join();
  while (!done.load() && std::chrono::steady_clock::now() - sent_at < kBound) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(done.load()) << "a request to parked loops did not complete within 1 s";
  session->Drain();
  const EventLoopStats client_io = remote->IoStats();
  const EventLoopStats server_io = server.Stats().io;
  EXPECT_GT(client_io.wakeups, client_wakes) << "the request did not find the client loop parked";
  EXPECT_LE(client_io.wakeups, client_io.parks);
  EXPECT_LE(server_io.wakeups, server_io.parks);

  session.reset();
  remote.reset();
  std::this_thread::sleep_for(kIdle);
  const auto stop_at = std::chrono::steady_clock::now();
  server.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_at, kBound)
      << "Stop did not wake a parked server loop within 1 s";
  db->Close();
}

}  // namespace
}  // namespace partdb

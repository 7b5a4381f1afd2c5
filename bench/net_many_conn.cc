// Connection-count scaling of the event-loop ingress: the KV microbenchmark
// (--scheme, default speculation) served by one DbServer and driven closed-loop while
// the number of TCP connections sweeps 1 -> 256 (one session per connection,
// the thread-per-conn worst case the epoll tier exists to absorb), plus a
// multiplexing sweep holding ONE connection while the sessions on it grow.
// Server threads stay at num_loops + 1 throughout — the point of the bench.
// Emits BENCH_net_many_conn.json (rows c{N} for the connection sweep, s{N}
// for the session sweep) tracked by tools/check_bench.py across PRs.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cc/scheme_registry.h"
#include "common/flags.h"
#include "db/closed_loop.h"
#include "kv/kv_procedures.h"
#include "net/db_server.h"
#include "net/remote_db.h"

using namespace partdb;

int main(int argc, char** argv) {
  FlagSet flags;
  BenchFlags bench(&flags, /*warmup_default=*/100, /*measure_default=*/300);
  int64_t* partitions = flags.AddInt64("partitions", 2, "partition worker threads");
  int64_t* mp_pct = flags.AddInt64("mp_pct", 10, "multi-partition transaction percentage");
  int64_t* num_loops = flags.AddInt64("loops", 1, "server event-loop threads");
  int64_t* max_conns =
      flags.AddInt64("max_conns", 256, "top of the connection sweep (1,2,4,... up to this)");
  std::string* scheme =
      flags.AddString("scheme", "speculation", "concurrency-control scheme (registry name)");
  std::string* json =
      flags.AddString("json", "BENCH_net_many_conn.json", "machine-readable results");
  if (!flags.Parse(argc, argv)) return 0;

  const uint64_t seed = static_cast<uint64_t>(*bench.seed);
  // Fail fast (listing the registered schemes) before the sweep starts.
  CcSchemeRegistry::Global().Get(*scheme);
  bool ok = true;
  std::vector<SchemeResult> results;

  // One sweep point: `sessions` closed-loop clients over the wire, either
  // one per connection (connection sweep) or all on one (session sweep).
  auto run_point = [&](const std::string& label, int sessions,
                       uint32_t sessions_per_conn) {
    KvWorkloadOptions mb;
    mb.num_partitions = static_cast<int>(*partitions);
    mb.num_clients = sessions;
    mb.mp_fraction = static_cast<double>(*mp_pct) / 100.0;

    DbOptions opts = KvDbOptions(mb, *scheme, RunMode::kParallel, seed);
    opts.max_sessions = sessions + 4;
    auto db = Database::Open(std::move(opts));
    DbServerOptions sopts;
    sopts.num_loops = static_cast<int>(*num_loops);
    DbServer server(db.get(), sopts);

    ConnectOptions copts;
    copts.procedures.push_back(KvReadUpdateProcedure(mb));
    copts.seed = seed;
    copts.sessions_per_conn = sessions_per_conn;
    auto remote = Connect("127.0.0.1", server.port(), std::move(copts));

    ClosedLoopOptions loop;
    loop.num_clients = sessions;
    loop.next = KvInvocations(mb, *remote);
    loop.warmup = bench.warmup();
    loop.measure = bench.measure();
    const Metrics m = RunClosedLoop(*remote, loop);

    const size_t conns = remote->conn_count();
    const DbServerStats stats = server.Stats();
    EventLoopStats io = remote->IoStats();
    io += stats.io;
    remote.reset();
    server.Stop();
    db->Close();

    std::printf("%-6s %4zu conns %4d sessions  %8.0f txn/s  p50=%6.1fus p99=%6.1fus  "
                "(%llu frames in, %llu flushes)\n",
                label.c_str(), conns, sessions, m.Throughput(),
                m.sp_latency.Percentile(50) / 1000.0, m.sp_latency.Percentile(99) / 1000.0,
                static_cast<unsigned long long>(stats.io.frames_in),
                static_cast<unsigned long long>(stats.io.flush_batches));
    if (m.committed == 0) {
      std::printf("ERROR: no transactions committed at %s\n", label.c_str());
      ok = false;
    }
    if (stats.protocol_errors != 0 || stats.rejected_requests != 0) {
      std::printf("ERROR: %s saw %llu protocol errors, %llu rejections\n", label.c_str(),
                  static_cast<unsigned long long>(stats.protocol_errors),
                  static_cast<unsigned long long>(stats.rejected_requests));
      ok = false;
    }
    results.push_back(WithNetCost(label, m, io, db->last_window_cost()));
  };

  std::printf("connection sweep: one session per TCP connection, %lld server loop(s)\n",
              static_cast<long long>(*num_loops));
  for (int n = 1; n <= *max_conns; n *= 2) {
    run_point(std::string("c").append(std::to_string(n)), n, /*sessions_per_conn=*/1);
  }
  std::printf("multiplex sweep: all sessions on ONE connection\n");
  for (int n : {4, 16, 64}) {
    run_point(std::string("s").append(std::to_string(n)), n, /*sessions_per_conn=*/0);
  }

  if (!json->empty()) {
    ok = WriteSchemeJson(*json, "net_many_conn",
                         {{"partitions", *partitions},
                          {"mp_pct", *mp_pct},
                          {"loops", *num_loops},
                          {"max_conns", *max_conns},
                          {"measure_ms", *bench.measure_ms}},
                         results) &&
         ok;
  }
  return ok ? 0 : 1;
}

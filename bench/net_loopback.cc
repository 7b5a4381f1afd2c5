// Loopback network-tier throughput: the paper's KV microbenchmark served by
// a DbServer on 127.0.0.1 and driven by closed-loop clients over
// RemoteSessions — the same RunClosedLoop call the embedded harnesses make,
// now crossing a real TCP stack (framing, codecs, per-connection server
// sessions) on every request and response. One run per concurrency-control
// scheme, commit logs checked with CheckSerializable on the server, results
// emitted to BENCH_net_loopback.json so the wire path's perf trajectory is
// tracked across PRs next to the embedded benches.
#include <memory>
#include <string>

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
  BenchFlags bench(&flags, /*warmup_default=*/200, /*measure_default=*/1000);
  int64_t* partitions = flags.AddInt64("partitions", 4, "partition worker threads");
  int64_t* clients =
      flags.AddInt64("clients", 16, "closed-loop logical clients (one TCP conn each)");
  int64_t* mp_pct = flags.AddInt64("mp_pct", 10, "multi-partition transaction percentage");
  int64_t* num_loops = flags.AddInt64("loops", 1, "server event-loop threads");
  int64_t* sessions_per_conn = flags.AddInt64(
      "sessions_per_conn", 0, "client sessions per TCP connection (0 = all on one)");
  int64_t* max_inflight =
      flags.AddInt64("max_inflight", 0, "per-session admission bound (0 = unlimited)");
  int64_t* verify = flags.AddInt64("verify", 1, "replay commit logs on the server");
  std::string* json =
      flags.AddString("json", "BENCH_net_loopback.json", "machine-readable results");
  if (!flags.Parse(argc, argv)) return 0;

  KvWorkloadOptions mb;
  mb.num_partitions = static_cast<int>(*partitions);
  mb.num_clients = static_cast<int>(*clients);
  mb.mp_fraction = static_cast<double>(*mp_pct) / 100.0;
  const uint64_t seed = static_cast<uint64_t>(*bench.seed);

  std::printf("loopback TCP tier via DbServer/RemoteSession: %d partition threads, "
              "%d remote sessions, %d%% multi-partition\n",
              mb.num_partitions, mb.num_clients, static_cast<int>(*mp_pct));

  bool ok = true;
  std::vector<SchemeResult> results;
  for (const std::string& scheme : CcSchemeRegistry::Global().Names()) {
    DbOptions opts = KvDbOptions(mb, scheme, RunMode::kParallel, seed);
    opts.log_commits = *verify != 0;
    opts.max_inflight_per_session = static_cast<uint64_t>(*max_inflight);
    auto db = Database::Open(std::move(opts));
    DbServerOptions sopts;
    sopts.num_loops = static_cast<int>(*num_loops);
    DbServer server(db.get(), sopts);

    ConnectOptions copts;
    copts.procedures.push_back(KvReadUpdateProcedure(mb));
    copts.seed = seed;
    copts.sessions_per_conn = static_cast<uint32_t>(*sessions_per_conn);
    auto remote = Connect("127.0.0.1", server.port(), std::move(copts));

    // The identical driver call the embedded benches make — the transport is
    // the only difference.
    ClosedLoopOptions loop;
    loop.num_clients = mb.num_clients;
    loop.next = KvInvocations(mb, *remote);
    loop.warmup = bench.warmup();
    loop.measure = bench.measure();
    Metrics m = RunClosedLoop(*remote, loop);

    const DbServerStats stats = server.Stats();
    EventLoopStats io = remote->IoStats();
    io += stats.io;
    remote.reset();
    server.Stop();
    db->Close();

    std::printf("%-12s %8.0f txn/s  committed=%llu (sp=%llu mp=%llu)\n",
                scheme.c_str(), m.Throughput(),
                static_cast<unsigned long long>(m.committed),
                static_cast<unsigned long long>(m.sp_committed),
                static_cast<unsigned long long>(m.mp_committed));
    std::printf("  sp latency: %s\n", m.sp_latency.Summary(1e-3).c_str());
    if (m.mp_latency.count() > 0) {
      std::printf("  mp latency: %s\n", m.mp_latency.Summary(1e-3).c_str());
    }
    std::printf("  ingress: %llu conns, %llu frames in / %llu out, "
                "%llu flush batches (%.1f frames/flush), %llu MB in / %llu MB out\n",
                static_cast<unsigned long long>(stats.accepted_conns),
                static_cast<unsigned long long>(stats.io.frames_in),
                static_cast<unsigned long long>(stats.io.frames_out),
                static_cast<unsigned long long>(stats.io.flush_batches),
                stats.io.flush_batches == 0
                    ? 0.0
                    : static_cast<double>(stats.io.frames_out) /
                          static_cast<double>(stats.io.flush_batches),
                static_cast<unsigned long long>(stats.io.bytes_in >> 20),
                static_cast<unsigned long long>(stats.io.bytes_out >> 20));
    if (m.committed == 0) {
      std::printf("ERROR: no transactions committed under %s\n", scheme.c_str());
      ok = false;
    }
    if (*verify != 0) {
      ok = ReportSerializable(*db, scheme.c_str()) && ok;
    }
    results.push_back(WithNetCost(scheme, m, io, db->last_window_cost()));
  }

  if (!json->empty()) {
    ok = WriteSchemeJson(*json, "net_loopback",
                         {{"partitions", mb.num_partitions},
                          {"clients", *clients},
                          {"mp_pct", *mp_pct},
                          {"measure_ms", *bench.measure_ms}},
                         results) &&
         ok;
  }

  return ok ? 0 : 1;
}

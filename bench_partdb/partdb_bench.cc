// bench_partdb: the partdb benchmark (README.md in this directory). One
// process runs one workload through the public API only — Database,
// Session, DbServer/Connect, Stats(), EndMeasurement() and RecoveryReport —
// checks that the results are correct, and prints every metric as
// `name value unit`, then one JSON summary as the last line of stdout.
//
//   partdb_bench --workload <kv_mem|kv_log|tpcc_durable|kv_net> --seed <n>
//                --seconds <window> --trace <0|1> [--json <file>]
//                [--trace_out <file>] [--work_dir <dir>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 first reruns the
// workload untraced (one set-up, no restart) as the overhead reference,
// then runs it traced and reports the per-layer metrics.
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/affinity.h"
#include "common/flags.h"
#include "kv/kv_procedures.h"
#include "net/db_server.h"
#include "net/remote_db.h"
#include "open_loop.h"
#include "tpcc/tpcc_consistency.h"
#include "tpcc/tpcc_procedures.h"
#include "trace.h"

#ifndef PARTDB_BENCH_BUILD_TYPE
#define PARTDB_BENCH_BUILD_TYPE "unknown"
#endif

namespace partdb::bench {
namespace {

// Frozen load levels (README "Calibration"), measured once on the
// reference box (4 vCPUs, ext4) and not re-derived per run, so every run of
// every commit offers the same load.
//  - R3, the tpcc_durable rate: about a sixth of its saturation throughput
//    (above 48k txn/s), where queueing outside checkpoint stalls is small.
//  - kv_net capacity: its closed-loop throughput with 4 transactions in
//    flight on each of the 2 connections (107k txn/s measured). The rungs
//    run at 25, 50, 75 and 100% of it; 50% is the nominal rung.
constexpr double kTpccRate = 8000;
constexpr double kNetCapacity = 100000;
constexpr double kNetRungs[] = {0.25, 0.5, 0.75, 1.0};
constexpr int kNetNominalRung = 1;

constexpr int kGenerators = 2;  // open-loop generator threads (one session each)
constexpr int kKvLogTail = 100000;  // kv_log transactions logged after the checkpoint
// Virtual users whose private keys every KV store holds: 12 per user on each
// partition, about 98k keys a partition. Populating them is most of a KV
// Open, so setup_s measures loading, not only the start of a few threads
// (whose wake-up cost on a virtual machine jumps between runs).
constexpr int kKvUsers = 8192;

// ---------------------------------------------------------------------------
// Process probes.

double ProcessCpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// A memory field of /proc/self/status ("VmHWM:" peak resident set,
/// "VmRSS:" current) in MiB.
double StatusMb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long long kb = 0;
  const size_t n = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, n) == 0) {
      kb = std::atoll(line + n);
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

/// Filesystem type of `path` (the flush policy's cost depends on it).
std::string FsType(const std::string& path) {
  struct statfs sf {};
  if (::statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x6969:
      return "nfs";
    case 0x65735546:
      return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// Shortest text that reads back as exactly `v`.
std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

template <typename Fn>
double TimeCall(Tracer* tracer, Hook h, Fn&& fn) {
  const int64_t s = NowNs();
  fn();
  const int64_t e = NowNs();
  if (tracer != nullptr) tracer->Record(h, s, e, nullptr);
  return static_cast<double>(e - s) * 1e-9;
}

// ---------------------------------------------------------------------------
// One run of a workload.

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  Duration window = 10 * kSecond;
  std::string work_dir;  // log directories live under it
  int warmup_setups = 0;  // untimed Database::Open repetitions first
  int setups = 3;         // timed ones; setup_s is their median
  bool restart = true;   // close, reopen on the same directory, verify
  Tracer* tracer = nullptr;
};

/// Counters read at each edge of the measurement window.
struct Edge {
  double cpu_s = 0;
  Database::DbStats db;
  DbServerStats net;
};

struct RunResult {
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setup_s;
  double setup_rss_mb = 0;  // resident memory once set up, before any load
  double close_s = 0;    // closing the measured database
  double restart_s = 0;  // close to serving again
  LoadReport load;     // the window (kv_net: the nominal rung)
  Metrics window;      // EndMeasurement over the same window
  Edge begin, end;
  RecoveryReport recovery;  // of the last reopen
  int checkpoints = 0;
  int checkpoint_fails = 0;
  double checkpoint_s = 0;  // summed
  uint64_t ckpt_bytes = 0;
  std::vector<std::pair<std::string, double>> extra;  // printed and recorded, not gated

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// One served database: the embedded Database, plus (kv_net) the DbServer
/// in front of it and the client handle dialed to it.
struct Service {
  std::unique_ptr<Database> db;
  std::unique_ptr<DbServer> server;
  std::unique_ptr<RemoteDatabase> remote;

  DbHandle& handle() { return remote != nullptr ? static_cast<DbHandle&>(*remote) : *db; }
  void Close() {
    remote.reset();
    if (server != nullptr) server->Stop();
    db->Close();
  }
  /// Destroys client, server, database — in that order.
  void Reset() {
    remote.reset();
    server.reset();
    db.reset();
  }
};

using OpenFn = std::function<Service()>;

void Instrument(DbOptions* o, Tracer* tracer) {
  if (tracer == nullptr) return;
  o->engine_factory = TraceEngines(std::move(o->engine_factory), tracer);
  TraceProcedures(&o->procedures, tracer);
}

/// Opens the service `c.warmup_setups + c.setups` times, each on an empty
/// log directory, and keeps the last one; setup_s is the median of the
/// timed ones. The untimed first ones absorb process start-up costs (cold
/// code, thread-stack and allocator caches) that only the first Open pays.
Service SetUp(const RunConfig& c, RunResult* r, const OpenFn& open, const std::string& dir) {
  Service s;
  for (int i = 0; i < c.warmup_setups + c.setups; ++i) {
    if (s.db != nullptr) {
      s.Close();
      s.Reset();
    }
    std::filesystem::remove_all(dir);
    const double t = TimeCall(c.tracer, Hook::kOpen, [&] { s = open(); });
    if (i >= c.warmup_setups) r->setup_s.push_back(t);
  }
  r->setup_rss_mb = StatusMb("VmRSS:");
  return s;
}

/// Closes the measured service and, when `c.restart`, restarts it: destroy,
/// Open again on the same options and log directory (durable workloads
/// recover), close again. `check(s, reopened)` sees each closed database
/// before it is destroyed.
void CloseAndRestart(const RunConfig& c, RunResult* r, Service* s, const OpenFn& open,
                     const std::function<void(Service&, bool)>& check) {
  r->close_s = TimeCall(c.tracer, Hook::kClose, [&] { s->Close(); });
  check(*s, false);
  if (c.restart) {
    const int64_t t = NowNs();
    s->Reset();
    TimeCall(c.tracer, Hook::kOpen, [&] { *s = open(); });
    r->restart_s = r->close_s + static_cast<double>(NowNs() - t) * 1e-9;
    r->recovery = s->db->recovery_report();
    s->Close();
    check(*s, true);
  }
  s->Reset();
}

/// Window-edge hooks: snapshot the counters, flip tracing and the
/// database's measurement window.
WindowHooks Probe(Service& s, Tracer* tracer, RunResult* r) {
  auto snap = [&s] {
    Edge e;
    e.cpu_s = ProcessCpuSeconds();
    e.db = s.db->Stats();
    if (s.server != nullptr) e.net = s.server->Stats();
    return e;
  };
  WindowHooks h;
  h.begin = [&s, tracer, r, snap] {
    r->begin = snap();
    if (tracer != nullptr) {
      tracer->SnapshotSched(true);
      tracer->set_window(true);
    }
    s.db->BeginMeasurement();
  };
  h.end = [&s, tracer, r, snap] {
    r->window = s.db->EndMeasurement();
    if (tracer != nullptr) {
      tracer->set_window(false);
      tracer->SnapshotSched(false);
    }
    r->end = snap();
  };
  return h;
}

std::vector<uint64_t> StateHashes(Database& db) {
  std::vector<uint64_t> out;
  for (PartitionId p = 0; p < db.options().num_partitions; ++p) {
    out.push_back(db.cluster().engine(p).StateHash());
  }
  return out;
}

/// Durable workloads: every partition's state after the reopen must equal
/// the live state before the close. Recovery replays the command log
/// serially, so this is also the serializability check.
std::function<void(Service&, bool)> HashCheck(RunResult* r) {
  auto live = std::make_shared<std::vector<uint64_t>>();
  return [r, live](Service& s, bool reopened) {
    const std::vector<uint64_t> h = StateHashes(*s.db);
    if (!reopened) {
      *live = h;
      return;
    }
    for (size_t p = 0; p < h.size(); ++p) {
      r->Check(h[p] == (*live)[p], "partition " + std::to_string(p) +
                                       " state after reopen differs from the live state");
    }
  };
}

/// Bytes in the checkpoint images under `dir`.
uint64_t CheckpointBytes(const std::string& dir) {
  uint64_t n = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".ckpt") n += e.file_size(ec);
  }
  return n;
}

// ---------------------------------------------------------------------------
// KV workloads.

/// The keys a committed KV update incremented (each adds one to each of
/// its keys' counters).
uint64_t KvKeysUpdated(const Payload& a, const TxnResult& r) {
  const auto& args = PayloadCast<KvArgs>(a);
  if (!r.committed || args.read_only) return 0;
  uint64_t n = 0;
  for (const auto& list : args.keys) n += list.size();
  return n;
}

/// The KV counter check: with private per-client keys starting at zero, the
/// sum of all counters equals the keys the bench saw committed updates
/// increment — a lost or doubled update breaks it. Call on a closed
/// database.
void CheckKvCounters(Database& db, uint64_t expected, RunResult* r) {
  uint64_t sum = 0;
  for (PartitionId p = 0; p < db.options().num_partitions; ++p) {
    auto& kv = static_cast<KvEngine&>(Unwrap(db.cluster().engine(p)));
    kv.store().ForEach([&sum](const KvKey&, const KvValue& v) { sum += DecodeValue(v); });
  }
  r->Check(sum == expected, "KV counters sum to " + std::to_string(sum) + ", committed updates " +
                                "incremented " + std::to_string(expected));
}

/// kv_mem / kv_log: the paper's §5.1 mix (12 keys, 10% multi-partition, no
/// read-only transactions) under speculation, 40 closed-loop clients (the
/// first 40 of the kKvUsers).
RunResult RunKvClosed(const RunConfig& c, bool durable) {
  constexpr int kClients = 40;
  RunResult r;
  KvWorkloadOptions kv;
  kv.num_partitions = 2;
  kv.num_clients = kKvUsers;
  kv.keys_per_txn = 12;
  kv.mp_fraction = 0.1;
  const std::string dir = c.work_dir + "/" + c.workload;
  const OpenFn open = [&] {
    DbOptions o = KvDbOptions(kv, "speculation", RunMode::kParallel, c.seed);
    o.max_sessions = kClients;
    if (durable) {
      o.durability = DurabilityMode::kAsync;
      o.log_dir = dir;
    }
    Instrument(&o, c.tracer);
    Service s;
    s.db = Database::Open(std::move(o));
    return s;
  };
  Service s = SetUp(c, &r, open, dir);

  CallbackLoopOptions loop;
  loop.clients = kClients;
  loop.warmup = kSecond;
  loop.measure = c.window;
  loop.seed = c.seed;
  loop.next = [&kv, proc = s.db->proc(kKvReadUpdateProc)](int client, Rng& rng) {
    return Invocation{proc, DrawKvTxn(kv, client, rng)};
  };
  loop.count = KvKeysUpdated;
  loop.window = Probe(s, c.tracer, &r);
  loop.tracer = c.tracer;
  r.load = RunCallbackLoop(s.handle(), loop);
  r.attempted = r.load.attempted;
  r.failed = r.load.failed();
  if (durable) {
    // Bound what each restart replays: checkpoint the now idle database,
    // then log a fixed tail, so recovery work does not grow with the
    // window's throughput.
    r.Check(s.db->Checkpoint(), "checkpoint after the window failed");
    auto session = s.db->CreateSession();
    Rng rng(Mix64(c.seed ^ 0x7a11));
    const ProcId proc = s.db->proc(kKvReadUpdateProc);
    std::atomic<uint64_t> tail_keys{0};
    for (int i = 0; i < kKvLogTail; ++i) {
      PayloadPtr args = DrawKvTxn(kv, i % kClients, rng);
      session->Submit(proc, args, [&tail_keys, args](const TxnResult& res) {
        tail_keys.fetch_add(KvKeysUpdated(*args, res), std::memory_order_relaxed);
      });
      if (i % 1000 == 999) session->Drain();  // bounded in flight, so memory stays flat
    }
    session->Drain();
    r.load.counted += tail_keys.load();
  }

  auto hashes = HashCheck(&r);
  CloseAndRestart(c, &r, &s, open, [&](Service& closed, bool reopened) {
    if (!reopened) CheckKvCounters(*closed.db, r.load.counted, &r);
    if (!durable) return;
    if (!reopened) r.ckpt_bytes = CheckpointBytes(dir);
    hashes(closed, reopened);
  });
  std::filesystem::remove_all(dir);
  return r;
}

/// Offered rate at which p99 reaches `limit_us`, interpolated between the
/// rungs; 0 when even the lowest rung misses it, the top rung's rate when
/// none does.
double SloRate(const std::vector<std::pair<double, double>>& rate_p99, double limit_us) {
  for (size_t i = 0; i < rate_p99.size(); ++i) {
    if (rate_p99[i].second <= limit_us) continue;
    if (i == 0) return 0;
    const auto [r0, p0] = rate_p99[i - 1];
    const auto [r1, p1] = rate_p99[i];
    return r0 + (r1 - r0) * (limit_us - p0) / (p1 - p0);
  }
  return rate_p99.empty() ? 0 : rate_p99.back().first;
}

/// The open-loop generator must keep its schedule for the latency to mean
/// anything, and the system must keep up at the nominal rate.
void CheckOpenLoop(const LoadReport& l, RunResult* r) {
  const double late_p50 = l.lateness.Percentile(50);
  const double p50 = l.latency.Percentile(50);
  r->Check(late_p50 <= 0.5 * p50, "generator late by " + Num(late_p50 / 1e3) +
                                      " us at p50, more than half the p50 latency " +
                                      Num(p50 / 1e3) + " us");
  r->Check(static_cast<double>(l.window_completions) >= 0.99 * static_cast<double>(l.attempted),
           "completions in the window (" + std::to_string(l.window_completions) +
               ") below 99% of arrivals (" + std::to_string(l.attempted) + ")");
}

/// kv_net: the KV mix with 50% read-only transactions over all kKvUsers'
/// keys, served over loopback TCP under locking; open loop at four rate
/// rungs.
RunResult RunKvNet(const RunConfig& c) {
  RunResult r;
  KvWorkloadOptions kv;
  kv.num_partitions = 2;
  kv.num_clients = kKvUsers;
  kv.keys_per_txn = 12;
  kv.mp_fraction = 0.1;
  kv.read_only_fraction = 0.5;
  const OpenFn open = [&] {
    DbOptions o = KvDbOptions(kv, "locking", RunMode::kParallel, c.seed);
    o.max_sessions = 2 * kGenerators;
    Instrument(&o, c.tracer);
    Service s;
    s.db = Database::Open(std::move(o));
    DbServerOptions so;
    so.num_loops = 1;
    s.server = std::make_unique<DbServer>(s.db.get(), so);
    ConnectOptions co;
    co.procedures.push_back(KvReadUpdateProcedure(kv));
    co.seed = c.seed;
    co.sessions_per_conn = 1;  // one connection per generator thread
    s.remote = Connect("127.0.0.1", s.server->port(), std::move(co));
    return s;
  };
  Service s = SetUp(c, &r, open, c.work_dir + "/" + c.workload);

  uint64_t keys = 0;
  const ProcId proc = s.handle().proc(kKvReadUpdateProc);
  std::vector<std::pair<double, double>> curve;  // offered rate, p99 us
  for (int i = 0; i < static_cast<int>(std::size(kNetRungs)); ++i) {
    const bool nominal = i == kNetNominalRung;
    OpenLoopOptions ol;
    ol.threads = kGenerators;
    ol.rate = kNetCapacity * kNetRungs[i];
    ol.warmup = 500 * kMillisecond;
    // The nominal rung carries the end-to-end latency, whose noise here
    // drifts over seconds: give it 70% of the window, the other three 10%.
    ol.measure = c.window * (nominal ? 7 : 1) / 10;
    ol.seed = c.seed + static_cast<uint64_t>(i);
    ol.next = [&kv, proc](int, Rng& rng) {
      const int user = static_cast<int>(rng.Uniform(static_cast<uint64_t>(kv.num_clients)));
      return Invocation{proc, DrawKvTxn(kv, user, rng)};
    };
    ol.count = KvKeysUpdated;
    if (nominal) {
      ol.window = Probe(s, c.tracer, &r);
      ol.tracer = c.tracer;
    }
    LoadReport l = RunDueTimeOpenLoop(s.handle(), ol);
    r.attempted += l.attempted;
    r.failed += l.failed();
    keys += l.counted;
    const std::string name = "rung" + std::to_string(static_cast<int>(kNetRungs[i] * 100));
    const double p99 = l.SliceMedianPercentile(99) / 1e3;
    r.extra.emplace_back(name + ".offered_per_s", l.offered_per_s());
    r.extra.emplace_back(name + ".txn_per_s", l.SliceMedianRate());
    r.extra.emplace_back(name + ".p50_us", l.SliceMedianPercentile(50) / 1e3);
    r.extra.emplace_back(name + ".p99_us", p99);
    r.extra.emplace_back(name + ".late_p99_us", l.lateness.Percentile(99) / 1e3);
    curve.emplace_back(l.offered_per_s(), p99);
    if (nominal) r.load = std::move(l);
  }
  r.extra.emplace_back("slo_txn_per_s", SloRate(curve, 1000.0));
  CheckOpenLoop(r.load, &r);

  CloseAndRestart(c, &r, &s, open, [&](Service& closed, bool reopened) {
    if (!reopened) CheckKvCounters(*closed.db, keys, &r);
  });
  return r;
}

// ---------------------------------------------------------------------------
// TPC-C.

/// tpcc_durable: the full TPC-C mix on 4 warehouses under mvcc with group
/// commit, open loop at R3, two checkpoints in the window. Items and
/// customers are a fifth of spec scale: at spec scale one run would not fit
/// the time budget (3.9 s per Open) and peaked at 1.7 GiB.
RunResult RunTpcc(const RunConfig& c) {
  using namespace tpcc;
  RunResult r;
  TpccWorkloadConfig wl;
  wl.scale.num_warehouses = 4;
  wl.scale.num_partitions = 2;
  wl.scale.items = 20000;
  wl.scale.customers_per_district = 600;
  wl.scale.initial_orders_per_district = 600;
  const std::string dir = c.work_dir + "/" + c.workload;
  const OpenFn open = [&] {
    DbOptions o = TpccDbOptions(wl.scale, "mvcc", RunMode::kParallel, kGenerators, c.seed);
    o.durability = DurabilityMode::kGroupCommit;
    o.group_commit_window_us = 200;
    o.log_dir = dir;
    Instrument(&o, c.tracer);
    Service s;
    s.db = Database::Open(std::move(o));
    return s;
  };
  Service s = SetUp(c, &r, open, dir);

  ProcId procs[5];
  for (TpccArgs::Kind k : {TpccArgs::Kind::kNewOrder, TpccArgs::Kind::kPayment,
                           TpccArgs::Kind::kOrderStatus, TpccArgs::Kind::kDelivery,
                           TpccArgs::Kind::kStockLevel}) {
    procs[static_cast<int>(k)] = s.db->proc(TpccProcName(k));
  }
  OpenLoopOptions ol;
  ol.threads = kGenerators;
  ol.rate = kTpccRate;
  ol.warmup = 2 * kSecond;
  ol.measure = c.window;
  ol.seed = c.seed;
  ol.next = [&wl, &procs](int, Rng& rng) {
    // Ten terminals per warehouse (spec 4.2.2), drawn per arrival.
    const int terminal =
        static_cast<int>(rng.Uniform(static_cast<uint64_t>(wl.scale.num_warehouses * 10)));
    TpccDraw d = DrawTpccTxn(wl, terminal, rng);
    return Invocation{procs[static_cast<int>(d.kind)], std::move(d.args)};
  };
  ol.window = Probe(s, c.tracer, &r);
  ol.window.during = [&](int64_t end) {
    const int64_t begin = NowNs();
    for (int k = 1; k <= 2; ++k) {
      internal::SleepUntilNs(begin + (end - begin) * k / 3);
      bool ok = false;
      r.checkpoint_s += TimeCall(c.tracer, Hook::kCheckpoint, [&] { ok = s.db->Checkpoint(); });
      (ok ? r.checkpoints : r.checkpoint_fails)++;
    }
  };
  ol.tracer = c.tracer;
  r.load = RunDueTimeOpenLoop(s.handle(), ol);
  r.attempted = r.load.attempted;
  r.failed = r.load.failed();
  CheckOpenLoop(r.load, &r);
  r.Check(r.checkpoints >= 1, "no checkpoint landed");

  auto hashes = HashCheck(&r);
  CloseAndRestart(c, &r, &s, open, [&](Service& closed, bool reopened) {
    if (!reopened) r.ckpt_bytes = CheckpointBytes(dir);
    hashes(closed, reopened);
    if (c.restart && !reopened) return;  // check the recovered state
    std::vector<const TpccDb*> dbs;
    for (PartitionId p = 0; p < wl.scale.num_partitions; ++p) {
      dbs.push_back(&static_cast<TpccEngine&>(Unwrap(closed.db->cluster().engine(p))).db());
    }
    const std::vector<std::string> violations = CheckConsistency(dbs);
    r.Check(violations.empty(),
            "TPC-C consistency: " + (violations.empty() ? "" : violations.front()));
  });
  std::filesystem::remove_all(dir);
  return r;
}

RunResult RunWorkload(const RunConfig& c) {
  RunResult r;
  if (c.workload == "kv_mem") r = RunKvClosed(c, /*durable=*/false);
  if (c.workload == "kv_log") r = RunKvClosed(c, /*durable=*/true);
  if (c.workload == "tpcc_durable") r = RunTpcc(c);
  if (c.workload == "kv_net") r = RunKvNet(c);
  r.Check(r.window.committed > 0, "nothing committed in the window");
  return r;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEnd(const RunResult& r) {
  return {
      {"setup_s", Median(r.setup_s), "s"},
      {"txn_per_s", r.load.SliceMedianRate(), "txn/s"},
      {"p50_us", r.load.SliceMedianPercentile(50) / 1e3, "us"},
      {"setup_rss_mb", r.setup_rss_mb, "MiB"},
  };
}

double CpuUsPerTxn(const RunResult& r) {
  return Ratio((r.end.cpu_s - r.begin.cpu_s) * 1e6,
               static_cast<double>(r.load.window_completions));
}

/// Per-layer metrics of the traced run `t`; `ref` is the untraced reference
/// run of the same workload.
std::vector<Metric> PerLayer(const RunResult& t, const RunResult& ref, const Tracer& tracer,
                             int host_cpus) {
  const LoadReport& l = t.load;
  const Metrics& m = t.window;
  const double win_s = l.window_s;
  const double txns = static_cast<double>(l.window_completions);
  const double done = static_cast<double>(m.completions());
  const double window_ns = win_s * 1e9;
  const Tracer::SelfTimes self = tracer.ComputeSelfTimes();
  const HookAgg submit = tracer.Merged(Hook::kSubmit);
  const HookAgg exec = tracer.Merged(Hook::kExecute);
  const Tracer::RoleCpu part = tracer.Cpu(Role::kPartition);
  const Tracer::RoleCpu sess = tracer.Cpu(Role::kSession);
  const Tracer::RoleCpu loop = tracer.Cpu(Role::kNetLoop);
  const double part_cpu_ns = part.cpu_s * 1e9;
  auto per_thread = [win_s](const Tracer::RoleCpu& rc, double v) {
    return Ratio(v, rc.threads * win_s);
  };
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  const ParallelRuntime::Stats& r0 = t.begin.db.runtime;
  const ParallelRuntime::Stats& r1 = t.end.db.runtime;
  const double msgs = d(r0.mailbox_pushed, r1.mailbox_pushed);
  const double cache_hits = d(r0.node_cache_hits, r1.node_cache_hits);
  const double cache_all = cache_hits + d(r0.node_cache_misses, r1.node_cache_misses);
  const DurabilityStats& d0 = t.begin.db.durability;
  const DurabilityStats& d1 = t.end.db.durability;
  const DbServerStats& n0 = t.begin.net;
  const DbServerStats& n1 = t.end.net;
  const double frames = d(n0.io.frames_in, n1.io.frames_in) + d(n0.io.frames_out, n1.io.frames_out);
  const double pool_hits = d(n0.payload_pool_hits, n1.payload_pool_hits);
  const double pool_all = pool_hits + d(n0.payload_pool_misses, n1.payload_pool_misses);
  const int opens = static_cast<int>(t.setup_s.size()) + (t.restart_s > 0 ? 1 : 0);

  return {
      {"db.open_s", Median(t.setup_s), "s"},
      {"db.close_s", t.close_s, "s"},
      {"db.restart_s", t.restart_s, "s"},
      {"db.submit_p50_ns", submit.hist.Percentile(50), "ns"},
      {"db.submit_p99_ns", submit.hist.Percentile(99), "ns"},
      {"db.txn_submit_frac", Ratio(self.submit_ns, self.total_ns), "fraction"},
      {"db.checkpoints", static_cast<double>(t.checkpoints), "count"},
      {"db.checkpoint_fails", static_cast<double>(t.checkpoint_fails), "count"},
      {"db.checkpoint_frac", Ratio(t.checkpoint_s, win_s), "fraction"},

      {"client.p99_us", l.latency.Percentile(99) / 1e3, "us"},
      {"client.sp_p50_us", m.sp_latency.Percentile(50) / 1e3, "us"},
      {"client.sp_p99_us", m.sp_latency.Percentile(99) / 1e3, "us"},
      {"client.mp_p50_us", m.mp_latency.Percentile(50) / 1e3, "us"},
      {"client.mp_p99_us", m.mp_latency.Percentile(99) / 1e3, "us"},
      {"client.retry_frac", Ratio(static_cast<double>(l.retried), static_cast<double>(l.completed)),
       "fraction"},
      {"client.user_abort_frac",
       Ratio(static_cast<double>(l.user_aborts), static_cast<double>(l.completed)), "fraction"},
      {"client.route_ns", tracer.Merged(Hook::kRoute).mean_ns(), "ns"},
      {"client.cb_delay_p50_ns", l.cb_delay.Percentile(50), "ns"},
      {"client.txn_self_frac", Ratio(self.self_ns, self.total_ns), "fraction"},

      {"runtime.msgs_per_txn", Ratio(msgs, txns), "1/txn"},
      {"runtime.cas_retries_per_kmsg",
       Ratio(d(r0.mailbox_cas_retries, r1.mailbox_cas_retries) * 1e3, msgs), "1/kmsg"},
      {"runtime.node_cache_hit_frac", Ratio(cache_hits, cache_all), "fraction"},
      {"runtime.wakes_per_kmsg", Ratio(d(r0.mailbox_wakes, r1.mailbox_wakes) * 1e3, msgs),
       "1/kmsg"},
      {"runtime.parks_per_kmsg", Ratio(d(r0.mailbox_parks, r1.mailbox_parks) * 1e3, msgs),
       "1/kmsg"},
      {"runtime.partition_cpu_frac", per_thread(part, part.cpu_s), "fraction"},
      {"runtime.partition_runq_frac", per_thread(part, part.runq_s), "fraction"},
      {"runtime.session_cpu_frac", per_thread(sess, sess.cpu_s), "fraction"},
      {"runtime.session_runq_frac", per_thread(sess, sess.runq_s), "fraction"},

      {"coord.mp_frac",
       Ratio(static_cast<double>(m.mp_committed), static_cast<double>(m.committed)), "fraction"},

      {"cc.useful_frac",
       Ratio(static_cast<double>(m.committed),
             static_cast<double>(m.committed + m.cascading_reexecs + m.txn_retries)),
       "fraction"},
      {"cc.speculative_per_mp",
       Ratio(static_cast<double>(m.speculative_execs), static_cast<double>(m.mp_committed)),
       "1/txn"},
      {"cc.cascade_per_mp",
       Ratio(static_cast<double>(m.cascading_reexecs), static_cast<double>(m.mp_committed)),
       "1/txn"},
      {"cc.lock_waits_per_txn", Ratio(static_cast<double>(m.lock_waits), done), "1/txn"},
      {"cc.fast_path_frac",
       Ratio(static_cast<double>(m.lock_fast_path),
             static_cast<double>(m.lock_fast_path + m.locked_txns)),
       "fraction"},
      {"cc.deadlocks_per_ktxn", Ratio(static_cast<double>(m.local_deadlocks) * 1e3, done),
       "1/ktxn"},
      {"cc.timeouts_per_ktxn", Ratio(static_cast<double>(m.timeout_aborts) * 1e3, done),
       "1/ktxn"},
      {"cc.lockset_frac",
       Ratio(static_cast<double>(tracer.Merged(Hook::kLockSet).total_ns), part_cpu_ns),
       "fraction"},
      {"cc.mvcc_snapshot_frac", Ratio(static_cast<double>(m.mvcc_snapshot_reads), done),
       "fraction"},
      {"cc.mvcc_conflict_wait_frac", Ratio(static_cast<double>(m.mvcc_conflict_waits), done),
       "fraction"},

      {"engine.load_s",
       Ratio(static_cast<double>(tracer.Merged(Hook::kLoad).total_ns) * 1e-9, opens), "s"},
      {"engine.exec_p50_ns", exec.hist.Percentile(50), "ns"},
      {"engine.exec_p99_ns", exec.hist.Percentile(99), "ns"},
      {"engine.frags_per_txn", Ratio(static_cast<double>(exec.calls), txns), "1/txn"},
      {"engine.exec_frac", Ratio(static_cast<double>(exec.total_ns), part_cpu_ns), "fraction"},
      {"engine.txn_exec_frac", Ratio(self.execute_ns, self.total_ns), "fraction"},
      {"engine.serialize_frac",
       Ratio(static_cast<double>(tracer.Merged(Hook::kSerialize).total_ns), window_ns),
       "fraction"},
      {"engine.restore_frac",
       Ratio(static_cast<double>(tracer.Merged(Hook::kRestore).total_ns), t.restart_s * 1e9),
       "fraction"},

      {"durability.records_per_txn", Ratio(d(d0.records, d1.records), txns), "1/txn"},
      {"durability.bytes_per_txn", Ratio(d(d0.bytes_logged, d1.bytes_logged), txns), "B/txn"},
      {"durability.avg_batch", Ratio(d(d0.records, d1.records), d(d0.batches, d1.batches)),
       "records"},
      {"durability.fsyncs_per_s", Ratio(d(d0.fsyncs, d1.fsyncs), win_s), "1/s"},
      {"durability.deferred_frac",
       Ratio(d(d0.deferred_completions, d1.deferred_completions), txns), "fraction"},
      {"durability.ckpt_mb", static_cast<double>(t.ckpt_bytes) / (1 << 20), "MiB"},
      {"durability.recovery_rec_per_s",
       Ratio(static_cast<double>(t.recovery.replayed), t.recovery.seconds), "1/s"},
      {"durability.recovery_replayed", static_cast<double>(t.recovery.replayed), "count"},

      {"net.frames_per_flush",
       Ratio(d(n0.io.frames_out, n1.io.frames_out), d(n0.io.flush_batches, n1.io.flush_batches)),
       "frames"},
      {"net.bytes_per_txn",
       Ratio(d(n0.io.bytes_in, n1.io.bytes_in) + d(n0.io.bytes_out, n1.io.bytes_out), txns),
       "B/txn"},
      {"net.wakeups_per_kframe", Ratio(d(n0.io.wakeups, n1.io.wakeups) * 1e3, frames),
       "1/kframe"},
      {"net.pool_hit_frac", Ratio(pool_hits, pool_all), "fraction"},
      {"net.decode_frac",
       Ratio(static_cast<double>(tracer.Merged(Hook::kDecode).total_ns), loop.cpu_s * 1e9),
       "fraction"},
      {"net.loop_cpu_frac", per_thread(loop, loop.cpu_s), "fraction"},

      {"gen.late_p99_frac", Ratio(l.lateness.Percentile(99), l.latency.Percentile(50)),
       "fraction"},
      {"gen.offered_per_s", l.offered_per_s(), "1/s"},
      {"proc.peak_rss_mb", StatusMb("VmHWM:"), "MiB"},
      {"proc.cpu_us_per_txn", CpuUsPerTxn(t), "us/txn"},
      {"proc.cpu_frac", Ratio(t.end.cpu_s - t.begin.cpu_s, win_s * host_cpus), "fraction"},
      {"trace.overhead_frac", Ratio(CpuUsPerTxn(t), CpuUsPerTxn(ref)) - 1, "fraction"},
      {"trace.sampled_txns", static_cast<double>(self.txns), "count"},
  };
}

// ---------------------------------------------------------------------------
// Output.

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonStr(ms[i].name) + ": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": " + JsonStr(ms[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace
}  // namespace partdb::bench

int main(int argc, char** argv) {
  using namespace partdb;
  using namespace partdb::bench;
  // Line-buffered even into a pipe, so a run that dies still shows how far
  // it got.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  FlagSet flags;
  std::string* workload = flags.AddString("workload", "", "kv_mem|kv_log|tpcc_durable|kv_net");
  int64_t* seed = flags.AddInt64("seed", 1, "workload seed");
  int64_t* seconds = flags.AddInt64("seconds", 10, "measurement window (s)");
  int64_t* trace = flags.AddInt64("trace", 0, "1 = traced run reporting per-layer metrics");
  std::string* json = flags.AddString("json", "", "also write the full result here");
  std::string* trace_out = flags.AddString("trace_out", "", "write the spans here (--trace 1)");
  std::string* work_dir = flags.AddString("work_dir", "bench_work", "log directories");
  if (!flags.Parse(argc, argv)) return 2;

  const std::vector<std::string> names = {"kv_mem", "kv_log", "tpcc_durable", "kv_net"};
  if (std::find(names.begin(), names.end(), *workload) == names.end() || *seconds < 1 ||
      (*trace != 0 && *trace != 1)) {
    std::fprintf(stderr, "usage: --workload <kv_mem|kv_log|tpcc_durable|kv_net> --seed <n> "
                         "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const int host_cpus = OnlineCpuCount();
  if (host_cpus < kGenerators) {
    std::fprintf(stderr, "needs at least %d CPUs (one per generator thread)\n", kGenerators);
    return 2;
  }
  std::filesystem::create_directories(*work_dir);

  RunConfig cfg;
  cfg.workload = *workload;
  // Enough set-ups for a steady median: a KV one takes about 25 ms, a
  // TPC-C one half a second.
  const bool tpcc = cfg.workload == "tpcc_durable";
  cfg.warmup_setups = tpcc ? 1 : 2;
  cfg.setups = tpcc ? 3 : 21;
  cfg.seed = static_cast<uint64_t>(*seed);
  cfg.window = *seconds * kSecond;
  cfg.work_dir = *work_dir;
  std::printf("bench_partdb %s: seed %llu, %llds window, trace %lld, %d host cpus, %s build, "
              "log fs %s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              static_cast<long long>(*seconds), static_cast<long long>(*trace), host_cpus,
              PARTDB_BENCH_BUILD_TYPE, FsType(cfg.work_dir).c_str());

  RunResult result;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  if (*trace == 0) {
    result = RunWorkload(cfg);
    metrics = EndToEnd(result);
  } else {
    RunConfig ref_cfg = cfg;
    ref_cfg.warmup_setups = 0;
    ref_cfg.setups = 1;
    ref_cfg.restart = false;
    const RunResult ref = RunWorkload(ref_cfg);
    errors = ref.errors;
    Tracer tracer;
    RunConfig traced = cfg;
    traced.warmup_setups = 0;
    traced.setups = 1;
    traced.tracer = &tracer;
    result = RunWorkload(traced);
    metrics = PerLayer(result, ref, tracer, host_cpus);
    std::printf("trace: %llu spans dropped (buffers full)\n",
                static_cast<unsigned long long>(tracer.dropped()));
    if (!trace_out->empty() && !tracer.WriteJson(*trace_out)) {
      errors.push_back("cannot write " + *trace_out);
    }
  }
  errors.insert(errors.end(), result.errors.begin(), result.errors.end());
  const bool correct = errors.empty();

  for (const auto& [name, value] : result.extra) {
    std::printf("%s %s\n", name.c_str(), Num(value).c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%s %s %s\n", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
  }
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  if (!json->empty()) {
    std::string extra = "{";
    for (size_t i = 0; i < result.extra.size(); ++i) {
      extra += (i == 0 ? "" : ", ") + JsonStr(result.extra[i].first) + ": " +
               Num(result.extra[i].second);
    }
    extra += "}";
    std::string errs = "[";
    for (size_t i = 0; i < errors.size(); ++i) errs += (i == 0 ? "" : ", ") + JsonStr(errors[i]);
    errs += "]";
    std::FILE* f = std::fopen(json->c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"bench\": \"bench_partdb\", \"workload\": %s, \"seed\": %llu, "
                   "\"seconds\": %lld, \"trace\": %lld,\n \"config\": {\"host_cpus\": %d, "
                   "\"build_type\": %s, \"log_fs\": %s},\n \"correct\": %s, \"attempted\": %llu, "
                   "\"failed\": %llu, \"errors\": %s,\n \"metrics\": %s,\n \"extra\": %s}\n",
                   JsonStr(cfg.workload).c_str(), static_cast<unsigned long long>(cfg.seed),
                   static_cast<long long>(*seconds), static_cast<long long>(*trace), host_cpus,
                   JsonStr(PARTDB_BENCH_BUILD_TYPE).c_str(), JsonStr(FsType(cfg.work_dir)).c_str(),
                   correct ? "true" : "false",
                   static_cast<unsigned long long>(result.attempted),
                   static_cast<unsigned long long>(result.failed), errs.c_str(),
                   MetricsJson(metrics).c_str(), extra.c_str());
      std::fclose(f);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), MetricsJson(metrics).c_str());
  return correct ? 0 : 1;
}

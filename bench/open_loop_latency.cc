// Open-loop latency vs. offered load, through the public Database/Session
// API: driver threads submit the microbenchmark procedure at configured
// aggregate arrival rates (Poisson inter-arrivals) without waiting for
// completions, so the latency distribution shows queueing delay as the
// offered rate approaches the partition's capacity — the measurement a
// closed-loop harness structurally cannot make. Each rate runs against a
// fresh database; commit logs are checked with CheckSerializable.
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cc/scheme_registry.h"
#include "common/flags.h"
#include "db/load_driver.h"
#include "kv/kv_procedures.h"

using namespace partdb;

int main(int argc, char** argv) {
  FlagSet flags;
  int64_t* partitions = flags.AddInt64("partitions", 2, "partition worker threads");
  int64_t* threads = flags.AddInt64("threads", 2, "open-loop driver threads");
  int64_t* mp_pct = flags.AddInt64("mp_pct", 10, "multi-partition transaction percentage");
  int64_t* duration_ms = flags.AddInt64("duration_ms", 500, "submission window per rate");
  int64_t* min_rate = flags.AddInt64("min_rate", 1000, "lowest offered rate (txn/s)");
  int64_t* max_rate = flags.AddInt64("max_rate", 16000, "highest offered rate (txn/s)");
  int64_t* seed = flags.AddInt64("seed", 12345, "workload seed");
  std::string* scheme =
      flags.AddString("scheme", "speculation", "concurrency-control scheme (registry name)");
  int64_t* verify = flags.AddInt64("verify", 1, "replay commit logs");
  std::string* csv = flags.AddString("csv", "", "also write results to this CSV file");
  if (!flags.Parse(argc, argv)) return 0;

  KvWorkloadOptions mb;
  mb.num_partitions = static_cast<int>(*partitions);
  mb.num_clients = static_cast<int>(*threads);  // pre-populated key namespaces
  mb.mp_fraction = static_cast<double>(*mp_pct) / 100.0;

  // Fail fast (listing the registered schemes) before the rate sweep starts.
  CcSchemeRegistry::Global().Get(*scheme);
  std::printf("open-loop load via Database/Session: %d partitions, %d driver threads, "
              "%d%% multi-partition, %s scheme\n",
              mb.num_partitions, static_cast<int>(*threads), static_cast<int>(*mp_pct),
              scheme->c_str());

  TableWriter table({"target_txn_s", "offered_txn_s", "completed_txn_s", "p50_us",
                     "p95_us", "p99_us", "max_us"});
  bool ok = true;
  for (int64_t rate = *min_rate; rate <= *max_rate; rate *= 2) {
    DbOptions opts = KvDbOptions(mb, *scheme, RunMode::kParallel,
                                 static_cast<uint64_t>(*seed));
    opts.log_commits = *verify != 0;
    auto db = Database::Open(std::move(opts));

    LoadDriverOptions load;
    load.threads = static_cast<int>(*threads);
    load.target_tps = static_cast<double>(rate);
    load.duration = *duration_ms * kMillisecond;
    load.proc = db->proc(kKvReadUpdateProc);
    load.next_args = [mb](int c, Rng& rng) { return DrawKvTxn(mb, c, rng); };
    load.seed = static_cast<uint64_t>(*seed);
    LoadDriverReport r = RunOpenLoop(*db, load);
    db->Close();

    table.AddRow({FmtInt(static_cast<double>(rate)), FmtInt(r.offered_tps),
                  FmtInt(r.completed_tps), Fmt2(r.latency.Percentile(50) / 1000.0),
                  Fmt2(r.latency.Percentile(95) / 1000.0),
                  Fmt2(r.latency.Percentile(99) / 1000.0),
                  Fmt2(static_cast<double>(r.latency.max()) / 1000.0)});
    if (r.completed != r.submitted || r.committed == 0) {
      std::printf("ERROR: rate %lld: submitted=%llu completed=%llu committed=%llu\n",
                  static_cast<long long>(rate),
                  static_cast<unsigned long long>(r.submitted),
                  static_cast<unsigned long long>(r.completed),
                  static_cast<unsigned long long>(r.committed));
      ok = false;
    }
    if (*verify != 0) {
      char label[32];
      std::snprintf(label, sizeof(label), "rate %lld", static_cast<long long>(rate));
      ok = ReportSerializable(*db, label) && ok;
    }
  }
  table.PrintAligned();
  if (!table.WriteCsvFile(*csv)) {
    std::printf("ERROR: cannot write %s\n", csv->c_str());
    ok = false;
  }
  if (ok && *verify != 0) {
    std::printf("all rates: serializable, replay matches live state\n");
  }
  return ok ? 0 : 1;
}

// End-to-end integration tests: every concurrency-control scheme runs the
// microbenchmark variants through the Database/Session ingress path on the
// deterministic simulator, then the committed history must satisfy
// final-state serializability (serial replay of each partition's commit log
// reproduces the live state) and cross-partition multi-partition commit
// orders must agree.
#include <string>

#include "cc/scheme_registry.h"
#include "gtest/gtest.h"
#include "kv/kv_procedures.h"
#include "test_util.h"

namespace partdb {
namespace {

KvRun RunKvSim(const KvWorkloadOptions& mb, const std::string& scheme, uint64_t seed,
               Duration warmup, Duration measure, bool log_commits = false,
               int replication = 1, bool backups_execute = false) {
  DbOptions opts = KvDbOptions(mb, scheme, RunMode::kSimulated, seed);
  opts.log_commits = log_commits;
  opts.replication = replication;
  opts.backups_execute = backups_execute;
  return RunKvClosedLoop(std::move(opts), mb, warmup, measure);
}

struct IntegrationParam {
  const char* scheme;
  double mp_fraction;
  double conflict_prob;
  double abort_prob;
  int mp_rounds;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<IntegrationParam>& info) {
  const IntegrationParam& p = info.param;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s_mp%d_conf%d_abort%d_r%d_s%llu", p.scheme,
                static_cast<int>(p.mp_fraction * 100), static_cast<int>(p.conflict_prob * 100),
                static_cast<int>(p.abort_prob * 100), p.mp_rounds,
                static_cast<unsigned long long>(p.seed));
  return buf;
}

class SchemeIntegration : public ::testing::TestWithParam<IntegrationParam> {};

TEST_P(SchemeIntegration, SerializableAndLive) {
  const IntegrationParam& param = GetParam();

  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 12;
  mb.mp_fraction = param.mp_fraction;
  mb.conflict_prob = param.conflict_prob;
  mb.pin_first_clients = param.conflict_prob > 0;
  mb.abort_prob = param.abort_prob;
  mb.mp_rounds = param.mp_rounds;

  KvRun run = RunKvSim(mb, param.scheme, param.seed, Micros(20000), Micros(150000),
                       /*log_commits=*/true);
  const Metrics& m = run.metrics;
  Database& db = *run.db;
  const EngineFactory& factory = run.db->options().engine_factory;

  // The system must have made progress.
  EXPECT_GT(m.completions(), 100u) << m.Summary();
  if (param.abort_prob == 0) {
    EXPECT_EQ(m.user_aborts, 0u);
  }
  if (param.abort_prob > 0.05) {
    EXPECT_GT(m.user_aborts, 0u);
  }

  // Final-state serializability per partition.
  std::vector<const std::vector<CommitRecord>*> logs;
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    const uint64_t live = db.engine(p).StateHash();
    const uint64_t replayed = ExpectCleanReplayStateHash(factory, p, db.commit_log(p));
    EXPECT_EQ(live, replayed) << "partition " << p << " diverged from serial replay ("
                              << param.scheme << ")";
    logs.push_back(&db.commit_log(p));
  }
  ExpectMpOrderConsistent(logs, param.scheme);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchemeIntegration,
    ::testing::Values(
        // Plain mixes.
        IntegrationParam{"blocking", 0.1, 0, 0, 1, 1},
        IntegrationParam{"speculation", 0.1, 0, 0, 1, 1},
        IntegrationParam{"locking", 0.1, 0, 0, 1, 1},
        // Multi-partition heavy.
        IntegrationParam{"blocking", 0.8, 0, 0, 1, 2},
        IntegrationParam{"speculation", 0.8, 0, 0, 1, 2},
        IntegrationParam{"locking", 0.8, 0, 0, 1, 2},
        // Conflicts (locking must serialize around the hot keys).
        IntegrationParam{"locking", 0.3, 0.6, 0, 1, 3},
        IntegrationParam{"speculation", 0.3, 0.6, 0, 1, 3},
        IntegrationParam{"blocking", 0.3, 0.6, 0, 1, 3},
        // Aborts (speculation must cascade correctly).
        IntegrationParam{"speculation", 0.3, 0, 0.1, 1, 4},
        IntegrationParam{"blocking", 0.3, 0, 0.1, 1, 4},
        IntegrationParam{"locking", 0.3, 0, 0.1, 1, 4},
        // Aborts + conflicts + speculation, different seeds.
        IntegrationParam{"speculation", 0.5, 0.4, 0.05, 1, 5},
        IntegrationParam{"speculation", 0.5, 0.4, 0.05, 1, 6},
        IntegrationParam{"locking", 0.5, 0.4, 0.05, 1, 7},
        // General (two-round) multi-partition transactions.
        IntegrationParam{"blocking", 0.3, 0, 0, 2, 8},
        IntegrationParam{"speculation", 0.3, 0, 0, 2, 8},
        IntegrationParam{"locking", 0.3, 0, 0, 2, 8},
        IntegrationParam{"speculation", 0.7, 0, 0.05, 2, 9},
        // 100% multi-partition stress.
        IntegrationParam{"blocking", 1.0, 0, 0, 1, 10},
        IntegrationParam{"speculation", 1.0, 0, 0, 1, 10},
        IntegrationParam{"locking", 1.0, 0, 0, 1, 10},
        IntegrationParam{"speculation", 1.0, 0, 0.1, 2, 11},
        // OCC extension (paper §5.7) across the regimes.
        IntegrationParam{"occ", 0.1, 0, 0, 1, 12},
        IntegrationParam{"occ", 0.8, 0, 0, 1, 12},
        IntegrationParam{"occ", 0.3, 0.6, 0, 1, 13},
        IntegrationParam{"occ", 0.5, 0.4, 0.1, 1, 14},
        IntegrationParam{"occ", 1.0, 0, 0.1, 1, 15},
        // MVCC extension (snapshot reads) across the regimes.
        IntegrationParam{"mvcc", 0.1, 0, 0, 1, 16},
        IntegrationParam{"mvcc", 0.8, 0, 0, 1, 16},
        IntegrationParam{"mvcc", 0.3, 0.6, 0, 1, 17},
        IntegrationParam{"mvcc", 0.5, 0.4, 0.1, 1, 18},
        IntegrationParam{"mvcc", 0.3, 0, 0, 2, 19},
        IntegrationParam{"mvcc", 1.0, 0, 0.1, 1, 20}),
    ParamName);

TEST(Integration, CounterSumMatchesCommits) {
  // Every committed transaction increments each of its keys exactly once, so
  // the final counter values must equal the per-key committed counts.
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 8;
  mb.mp_fraction = 0.4;
  mb.abort_prob = 0.05;

  KvRun run = RunKvSim(mb, "speculation", 99, Micros(10000), Micros(100000),
                       /*log_commits=*/true);
  Database& db = *run.db;

  for (PartitionId p = 0; p < 2; ++p) {
    std::unordered_map<uint64_t, uint64_t> expected;  // key hash -> count
    for (const CommitRecord& rec : db.commit_log(p)) {
      const auto& args = PayloadCast<KvArgs>(*rec.args);
      for (const KvKey& k : args.keys[p]) expected[k.Hash()]++;
    }
    auto& store = static_cast<KvEngine&>(db.engine(p)).store();
    for (int c = 0; c < mb.num_clients; ++c) {
      for (int i = 0; i < mb.keys_per_txn; ++i) {
        const KvKey key = MicrobenchKey(c, p, i);
        KvValue v;
        ASSERT_TRUE(store.Get(key, &v));
        EXPECT_EQ(DecodeValue(v), expected[key.Hash()])
            << "client " << c << " slot " << i << " partition " << p;
      }
    }
  }
}

TEST(Integration, ReplicationBackupsConverge) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 8;
  mb.mp_fraction = 0.3;
  mb.abort_prob = 0.05;

  for (const std::string& scheme : CcSchemeRegistry::Global().Names()) {
    KvRun run = RunKvSim(mb, scheme, 77, Micros(10000), Micros(80000),
                         /*log_commits=*/false, /*replication=*/2, /*backups_execute=*/true);
    EXPECT_GT(run.metrics.completions(), 100u) << scheme;

    for (PartitionId p = 0; p < 2; ++p) {
      EXPECT_EQ(run.db->engine(p).StateHash(),
                run.db->backup_engine(p, 0).StateHash())
          << "backup of partition " << p << " diverged (" << scheme << ")";
    }
  }
}

TEST(Integration, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    KvWorkloadOptions mb;
    mb.num_partitions = 2;
    mb.num_clients = 10;
    mb.mp_fraction = 0.25;
    KvRun r = RunKvSim(mb, "speculation", seed, Micros(10000), Micros(50000));
    return std::make_pair(r.metrics.completions(), r.db->engine(0).StateHash() ^
                                                       r.db->engine(1).StateHash());
  };
  auto [n1, h1] = run(42);
  auto [n2, h2] = run(42);
  auto [n3, h3] = run(43);
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);  // different seed, different history
}

TEST(Integration, LockingFastPathUsedWhenNoMp) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 8;
  mb.mp_fraction = 0.0;
  KvRun run = RunKvSim(mb, "locking", 12345, Micros(10000), Micros(50000));
  EXPECT_GT(run.metrics.lock_fast_path, 0u);
  EXPECT_EQ(run.metrics.locked_txns, 0u);  // never any active transaction at arrival
}

TEST(Integration, SpeculationActuallySpeculates) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 20;
  mb.mp_fraction = 0.3;
  KvRun run = RunKvSim(mb, "speculation", 12345, Micros(10000), Micros(50000));
  EXPECT_GT(run.metrics.speculative_execs, 0u) << run.metrics.Summary();
}

TEST(Integration, AbortsCauseCascadingReexecutions) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 20;
  mb.mp_fraction = 0.3;
  mb.abort_prob = 0.1;
  KvRun run = RunKvSim(mb, "speculation", 12345, Micros(10000), Micros(50000));
  EXPECT_GT(run.metrics.cascading_reexecs, 0u) << run.metrics.Summary();
  EXPECT_GT(run.metrics.user_aborts, 0u);
}

}  // namespace
}  // namespace partdb

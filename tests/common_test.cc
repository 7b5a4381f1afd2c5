// Tests for the common utilities: Rng, Histogram, FlagSet,
// InlineString, SmallFn, SmallVector, TxnTable, message size accounting, and
// metrics arithmetic.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/histogram.h"
#include "common/inline_string.h"
#include "common/rng.h"
#include "common/small_fn.h"
#include "common/small_vector.h"
#include "common/txn_table.h"
#include "gtest/gtest.h"
#include "kv/kv_engine.h"
#include "msg/message.h"
#include "runtime/metrics.h"
#include "tpcc/tpcc_loader.h"

namespace partdb {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformBoundsAndCoverage) {
  Rng rng(7);
  std::map<uint64_t, int> seen;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.Uniform(10);
    ASSERT_LT(v, 10u);
    seen[v]++;
  }
  EXPECT_EQ(seen.size(), 10u);  // every value hit
  for (const auto& [v, n] : seen) EXPECT_GT(n, 700);  // roughly uniform
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(9);
  bool lo_hit = false, hi_hit = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.UniformRange(5, 15);
    ASSERT_GE(v, 5);
    ASSERT_LE(v, 15);
    lo_hit |= v == 5;
    hi_hit |= v == 15;
  }
  EXPECT_TRUE(lo_hit);
  EXPECT_TRUE(hi_hit);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

/// The first 16 draws of `draw` on a fresh Rng(seed), space-separated.
template <typename Draw>
std::string First16(uint64_t seed, Draw draw) {
  Rng rng(seed);
  std::string out;
  for (int i = 0; i < 16; ++i) {
    if (i > 0) out += ' ';
    out += draw(rng);
  }
  return out;
}

template <typename T>
std::string Format(const char* fmt, T v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

// Every simulated run and every loaded TPC-C table is drawn from these
// streams, so each primitive's first draws at two seeds are pinned: an edit
// to the generator's arithmetic moves a sim golden only by accident, and
// this fails first.
TEST(Rng, StreamIsPinned) {
  const auto next = [](Rng& r) { return Format("%016" PRIx64, r.Next()); };
  const auto uniform = [](Rng& r) { return std::to_string(r.Uniform(26)); };
  const auto range = [](Rng& r) { return std::to_string(r.UniformRange(1, 10000)); };
  const auto unit = [](Rng& r) { return Format("%a", r.NextDouble()); };
  EXPECT_EQ(First16(1, next),
            "b3f2af6d0fc710c5 853b559647364cea 92f89756082a4514 642e1c7bc266a3a7 "
            "b27a48e29a233673 24c123126ffda722 123004ef8df510e6 61954dcc47b1e89d "
            "ddfdb48ab9ed4a21 8d3cdb8c3aa5b1d0 eebd114bd87226d1 f50c3ff1e7d7e8a6 "
            "eeca3115e23bc8f1 ab49ed3db4c66435 99953c6c57808dd7 e3fa941b05219325");
  EXPECT_EQ(First16(1, uniform), "9 8 2 7 11 6 22 21 3 10 19 22 15 23 5 11");
  EXPECT_EQ(First16(1, range),
            "9558 523 901 5384 372 163 7287 6430 2322 209 1842 7111 4402 3574 9192 9750");
  EXPECT_EQ(First16(1, unit),
            "0x1.67e55eda1f8e2p-1 0x1.0a76ab2c8e6c9p-1 0x1.25f12eac10548p-1 0x1.90b871ef099a8p-2 "
            "0x1.64f491c534466p-1 0x1.260918937fedp-3 0x1.23004ef8df51p-4 0x1.865537311ec7ap-2 "
            "0x1.bbfb691573da9p-1 0x1.1a79b718754b6p-1 0x1.dd7a2297b0e44p-1 0x1.ea187fe3cfafdp-1 "
            "0x1.dd94622bc4779p-1 0x1.5693da7b698ccp-1 0x1.332a78d8af011p-1 0x1.c7f528360a432p-1");
  EXPECT_EQ(First16(0x5eedf00d, next),
            "7c873a5e096e5982 afa8a941fb322560 901e1d55271b5116 c0402398799c6825 "
            "ae42244e1a25c727 109dfd0c003a3d84 224de210c22928d5 9392d843dbecd34f "
            "084fc5cfa301a700 19159920ce40e3c2 0419d09da5f9c9b9 b9a4c991d877da7c "
            "91126e530e231f0a 50514ab0c4e931fa 2271e1942cee23f4 c318fb7642477b7c");
  EXPECT_EQ(First16(0x5eedf00d, uniform), "18 12 20 17 15 8 15 9 10 14 25 0 0 20 12 8");
  EXPECT_EQ(First16(0x5eedf00d, range),
            "6275 4977 9783 262 6616 1685 1782 1712 1953 4483 1770 13 6187 4555 7637 6893");
  EXPECT_EQ(First16(0x5eedf00d, unit),
            "0x1.f21ce97825b96p-2 0x1.5f515283f6644p-1 0x1.203c3aaa4e36ap-1 0x1.80804730f338dp-1 "
            "0x1.5c84489c344b8p-1 0x1.09dfd0c003a38p-4 0x1.126f108611494p-3 0x1.2725b087b7d9ap-1 "
            "0x1.09f8b9f46034p-5 0x1.9159920ce40ep-4 0x1.067427697e72p-6 0x1.73499323b0efbp-1 "
            "0x1.2224dca61c463p-1 0x1.41452ac313a4cp-2 0x1.138f0ca16771p-3 0x1.8631f6ec848efp-1");
}

TEST(Histogram, PercentilesOrderedAndBounded) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Add(v * 1000);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000000);
  const double p50 = h.Percentile(50), p95 = h.Percentile(95), p99 = h.Percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, static_cast<double>(h.max()));
  // Log-bucketed: percentile error bounded by ~10%.
  EXPECT_NEAR(p50, 500000, 500000 * 0.15);
  EXPECT_NEAR(h.Mean(), 500500, 1.0);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  a.Add(10);
  b.Add(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000000);
}

/// The bucket formula Histogram::BucketFor answers from its table.
int FormulaBucket(int64_t v) {
  if (v <= 0) return 0;
  const int idx = static_cast<int>(std::log(static_cast<double>(v)) / std::log(1.1));
  return std::min(std::max(idx, 0), Histogram::num_buckets() - 1);
}

TEST(Histogram, BucketLookupMatchesTheFormulaAtEveryBoundary) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  int boundaries = 0;
  for (int b = 1; b < Histogram::num_buckets(); ++b) {
    if (FormulaBucket(kMax) < b) break;
    // The smallest value the formula puts in bucket b or above.
    int64_t lo = 1;
    int64_t hi = kMax;
    while (lo < hi) {
      const int64_t mid = lo + (hi - lo) / 2;
      if (FormulaBucket(mid) >= b) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    for (int64_t v : {lo - 1, lo, lo == kMax ? lo : lo + 1}) {
      ASSERT_EQ(Histogram::BucketFor(v), FormulaBucket(v)) << "value " << v << ", bucket " << b;
    }
    ++boundaries;
  }
  EXPECT_GT(boundaries, 400);
  for (int64_t v = -3; v <= 100000; ++v) {
    ASSERT_EQ(Histogram::BucketFor(v), FormulaBucket(v)) << "value " << v;
  }
  EXPECT_EQ(Histogram::BucketFor(kMax), FormulaBucket(kMax));
  EXPECT_EQ(Histogram::BucketFor(std::numeric_limits<int64_t>::min()), 0);
}

TEST(FlagSet, ParsesAllTypesAndForms) {
  FlagSet flags;
  int64_t* n = flags.AddInt64("n", 5, "");
  double* d = flags.AddDouble("d", 0.5, "");
  bool* b = flags.AddBool("verbose", false, "");
  std::string* s = flags.AddString("name", "x", "");

  const char* argv[] = {"prog", "--n=42", "--d", "2.75", "--verbose", "--name=hello"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(*n, 42);
  EXPECT_DOUBLE_EQ(*d, 2.75);
  EXPECT_TRUE(*b);
  EXPECT_EQ(*s, "hello");
}

TEST(InlineString, BasicSemantics) {
  InlineString<8> a("abc"), b("abc"), c("abd"), empty;
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(a.str(), "abc");
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), c.Hash());
}

TEST(InlineString, BinaryContentsSupported) {
  const char raw[4] = {0x00, 0x01, 0x7f, 0x00};
  InlineString<8> s(std::string_view(raw, 4));
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(std::memcmp(s.data(), raw, 4), 0);
}

// SmallFn backs the per-write undo/redo closures: captures up to its inline
// budget must stay in place (no allocation), oversized ones spill to the
// heap transparently, and moved-from wrappers release their payload.
TEST(SmallFn, InlineStorageCoversUndoSizedCaptures) {
  using UndoFn = SmallFn<void(), 48>;
  // this + key + old value: the shape every KV write-site closure has.
  struct Capture {
    void* self;
    InlineString<8> key;
    InlineString<8> old_value;
  };
  static_assert(sizeof(Capture) <= 48);
  EXPECT_TRUE((UndoFn::stored_inline<decltype([c = Capture{}]() { (void)c; })>()));
  // A full TPC-C row image exceeds the budget and must take the heap path.
  struct BigCapture {
    char row[96];
  };
  EXPECT_FALSE((UndoFn::stored_inline<decltype([c = BigCapture{}]() { (void)c; })>()));

  int runs = 0;
  Capture cap{&runs, InlineString<8>("k"), InlineString<8>("v")};
  UndoFn fn = [cap, &runs]() {
    ++runs;
    EXPECT_EQ(cap.key.str(), "k");
  };
  fn();
  fn();
  EXPECT_EQ(runs, 2);
}

TEST(SmallFn, HeapFallbackAndMoveSemantics) {
  using Fn = SmallFn<int(int), 16>;
  struct Big {
    char pad[64];
    int base;
    int operator()(int x) const { return base + x; }
  };
  static_assert(!Fn::stored_inline<Big>());

  Fn f = Big{{}, 40};
  ASSERT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(2), 42);

  Fn g = std::move(f);
  EXPECT_EQ(f, nullptr);  // NOLINT(bugprone-use-after-move): post-move state is the test
  EXPECT_EQ(g(10), 50);

  f = std::move(g);
  EXPECT_EQ(g, nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(f(0), 40);
}

TEST(SmallFn, DestroysCaptureExactlyOnce) {
  using Fn = SmallFn<void(), 48>;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    Fn f = [t = std::move(token)]() { EXPECT_EQ(*t, 7); };
    f();
    EXPECT_FALSE(watch.expired());
    Fn g = std::move(f);
    g();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(SmallVector, SpillsToTheHeapAtNPlusOne) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.IsInline());
  EXPECT_EQ(v.capacity(), 4u);
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.IsInline());
  v.push_back(4);
  EXPECT_FALSE(v.IsInline());
  EXPECT_GE(v.capacity(), 5u);
  EXPECT_EQ(v, (std::vector<int>{0, 1, 2, 3, 4}));
}

/// `n` shared ints, each holding one reference besides the vector's.
std::vector<std::shared_ptr<int>> Tokens(int n) {
  std::vector<std::shared_ptr<int>> out;
  for (int i = 0; i < n; ++i) out.push_back(std::make_shared<int>(i));
  return out;
}

TEST(SmallVector, CopyAndMoveFromInline) {
  const auto tokens = Tokens(2);
  SmallVector<std::shared_ptr<int>, 3> a;
  for (const auto& t : tokens) a.push_back(t);
  ASSERT_TRUE(a.IsInline());

  SmallVector<std::shared_ptr<int>, 3> copy(a);
  EXPECT_TRUE(copy.IsInline());
  EXPECT_EQ(copy, a);
  EXPECT_EQ(tokens[0].use_count(), 3);

  SmallVector<std::shared_ptr<int>, 3> moved(std::move(copy));
  EXPECT_TRUE(moved.IsInline());
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(moved, a);
  EXPECT_EQ(tokens[0].use_count(), 3);

  // Assignments into a spilled vector keep its elements' references exact.
  SmallVector<std::shared_ptr<int>, 3> target;
  for (const auto& t : Tokens(5)) target.push_back(t);
  ASSERT_FALSE(target.IsInline());
  target = a;
  EXPECT_EQ(target, a);
  EXPECT_EQ(tokens[1].use_count(), 4);
  target = std::move(moved);
  EXPECT_EQ(target, a);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(tokens[1].use_count(), 3);
}

TEST(SmallVector, CopyAndMoveFromSpilled) {
  const auto tokens = Tokens(5);
  SmallVector<std::shared_ptr<int>, 3> a;
  for (const auto& t : tokens) a.push_back(t);
  ASSERT_FALSE(a.IsInline());

  SmallVector<std::shared_ptr<int>, 3> copy(a);
  EXPECT_FALSE(copy.IsInline());
  EXPECT_EQ(copy, a);
  EXPECT_EQ(tokens[4].use_count(), 3);

  // A move hands the heap block over.
  const std::shared_ptr<int>* block = copy.data();
  SmallVector<std::shared_ptr<int>, 3> moved(std::move(copy));
  EXPECT_EQ(moved.data(), block);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_TRUE(copy.IsInline());
  EXPECT_EQ(tokens[4].use_count(), 3);

  SmallVector<std::shared_ptr<int>, 3> target;
  target.push_back(tokens[0]);
  target = std::move(moved);
  EXPECT_EQ(target.data(), block);
  EXPECT_EQ(target, a);
  EXPECT_EQ(tokens[0].use_count(), 3);

  // A spilled vector that shrank back under N copies into inline room.
  a.resize(2);
  SmallVector<std::shared_ptr<int>, 3> small(a);
  EXPECT_TRUE(small.IsInline());
  EXPECT_EQ(small, a);
}

TEST(SmallVector, ResizeAndClear) {
  const auto tokens = Tokens(1);
  SmallVector<std::shared_ptr<int>, 2> v;
  v.resize(2);
  EXPECT_TRUE(v.IsInline());
  EXPECT_EQ(v[0], nullptr);
  v[1] = tokens[0];
  v.resize(6);  // spills, keeping the elements
  EXPECT_FALSE(v.IsInline());
  EXPECT_EQ(v.size(), 6u);
  EXPECT_EQ(v[1], tokens[0]);
  EXPECT_EQ(v[5], nullptr);
  v.resize(1);  // destroys the tail
  EXPECT_EQ(tokens[0].use_count(), 1);
  v.push_back(tokens[0]);
  const size_t cap = v.capacity();
  v.clear();  // keeps the heap block
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);
  EXPECT_EQ(tokens[0].use_count(), 1);

  SmallVector<int, 2> ints{7, 8, 9};
  ints.resize(5);
  EXPECT_EQ(ints, (std::vector<int>{7, 8, 9, 0, 0}));
  ints.resize(1);
  EXPECT_EQ(ints, (std::vector<int>{7}));
}

TEST(MessageSize, GrowsWithPayload) {
  auto small = std::make_shared<KvArgs>();
  small->keys.resize(1);
  small->keys[0].push_back(KvKey("k"));
  auto big = std::make_shared<KvArgs>();
  big->keys.resize(1);
  for (int i = 0; i < 100; ++i) big->keys[0].push_back(KvKey("k"));

  FragmentRequest fs;
  fs.args = small;
  FragmentRequest fb;
  fb.args = big;
  EXPECT_LT(MessageByteSize(MessageBody(fs)), MessageByteSize(MessageBody(fb)));
  EXPECT_GT(MessageByteSize(MessageBody(DecisionMessage{})), 0u);
  EXPECT_STREQ(MessageTypeName(MessageBody(DecisionMessage{})), "Decision");
}

TEST(Metrics, ThroughputAndUtilization) {
  Metrics m;
  m.committed = 900;
  m.user_aborts = 100;
  m.window_ns = kSecond;
  m.num_partitions = 2;
  m.partition_busy_ns = kSecond;  // both partitions half busy
  EXPECT_DOUBLE_EQ(m.Throughput(), 1000.0);
  EXPECT_DOUBLE_EQ(m.PartitionUtilization(), 0.5);
  m.lock_acquire_ns = 100;
  m.lock_release_ns = 50;
  m.lock_table_ns = 50;
  m.partition_busy_ns = 1000;
  EXPECT_DOUBLE_EQ(m.LockTimeFraction(), 0.2);
}

// Summary() prints every counter with its value, the scheme-specific ones
// included.
TEST(MetricsSummary, NamesEveryCounter) {
  Metrics m;
  m.occ_survivors = 7001;
  m.mvcc_snapshot_reads = 7002;
  m.mvcc_conflict_waits = 7003;
  const std::string s = m.Summary();
  for (const char* want : {"occ_survivors=7001", "mvcc_snapshot_reads=7002",
                           "mvcc_conflict_waits=7003"}) {
    EXPECT_NE(s.find(want), std::string::npos) << want << " missing from: " << s;
  }
  for (const MetricsCounter& c : kMetricsCounters) {
    EXPECT_NE(s.find(std::string(" ") + c.name + "="), std::string::npos) << c.name;
  }
}

// An entry with a buffer whose capacity Reset keeps, and a count of resets.
struct TableEntry {
  std::vector<int> buf;
  std::shared_ptr<int> payload;
  int resets = 0;

  void Reset() {
    buf.clear();
    payload = nullptr;
    ++resets;
  }
};

TEST(TxnTable, FindMissesAfterErase) {
  TxnTable<TableEntry> table;
  table.Emplace(7).buf.push_back(1);
  ASSERT_NE(table.Find(7), nullptr);
  EXPECT_EQ(table.Find(7)->buf.size(), 1u);
  EXPECT_EQ(table.Find(8), nullptr);
  table.Erase(7);
  EXPECT_EQ(table.Find(7), nullptr);
  EXPECT_TRUE(table.empty());
}

TEST(TxnTable, EmplaceReusesTheParkedEntryWithItsCapacity) {
  TxnTable<TableEntry> table;
  TableEntry& first = table.Emplace(1);
  first.buf.assign(100, 5);
  first.payload = std::make_shared<int>(3);
  std::weak_ptr<int> payload = first.payload;
  const int* storage = first.buf.data();
  table.Erase(1);
  EXPECT_TRUE(payload.expired());  // Reset dropped it at the Erase
  EXPECT_EQ(table.spare(), 1u);

  TableEntry& second = table.Emplace(2);
  EXPECT_EQ(second.resets, 1);
  EXPECT_TRUE(second.buf.empty());
  EXPECT_GE(second.buf.capacity(), 100u);
  EXPECT_EQ(second.buf.data(), storage);
  EXPECT_EQ(table.spare(), 0u);
  EXPECT_EQ(table.Find(2), &second);
  EXPECT_EQ(table.Find(1), nullptr);
}

TEST(TxnTable, EntriesStayPutWhileOthersAreInserted) {
  TxnTable<TableEntry> table;
  TableEntry* first = &table.Emplace(0);
  for (TxnId id = 1; id < 1000; ++id) table.Emplace(id);
  EXPECT_EQ(table.Find(0), first);
  for (TxnId id = 1; id < 1000; id += 2) table.Erase(id);
  EXPECT_EQ(table.Find(0), first);
  EXPECT_EQ(table.size(), 500u);
}

TEST(TxnTable, SpareListStaysBounded) {
  TxnTable<TableEntry> table;
  const TxnId n = 4 * TxnTable<TableEntry>::kMaxSpare;
  for (TxnId id = 0; id < n; ++id) table.Emplace(id);
  for (TxnId id = 0; id < n; ++id) table.Erase(id);
  EXPECT_EQ(table.spare(), TxnTable<TableEntry>::kMaxSpare);
  for (TxnId id = 0; id < n; ++id) table.Emplace(n + id);
  EXPECT_EQ(table.spare(), 0u);
  EXPECT_EQ(table.size(), n);
}

TEST(TxnIdEncoding, RoundTrips) {
  const TxnId id = MakeTxnId(12, 3456);
  EXPECT_EQ(TxnClient(id), 12);
  EXPECT_EQ(TxnSeq(id), 3456u);
}

TEST(TpccRandom, NURandInRange) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const int32_t v = tpcc::NURand(rng, 1023, 1, 3000, 259);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 3000);
  }
}

TEST(TpccRandom, LastNameSyllables) {
  EXPECT_EQ(tpcc::LastName(0).str(), "BARBARBAR");
  EXPECT_EQ(tpcc::LastName(371).str(), "PRICALLYOUGHT");
  EXPECT_EQ(tpcc::LastName(999).str(), "EINGEINGEING");
}

}  // namespace
}  // namespace partdb

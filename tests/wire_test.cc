// Wire-format tests: primitive round trips and bounds checking, property
// tests that every KV / TPC-C args/result payload encodes -> decodes
// bit-identically with ByteSize() equal to the encoded size, and the
// size-parity pins that keep the sim cost model's byte accounting identical
// to the pre-codec hand estimates (the figure goldens depend on them).
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "db/procedure_registry.h"
#include "gtest/gtest.h"
#include "kv/kv_engine.h"
#include "kv/kv_procedures.h"
#include "kv/kv_workload.h"
#include "msg/wire.h"
#include "net/frame.h"
#include "runtime/metrics.h"
#include "tpcc/tpcc_engine.h"
#include "tpcc/tpcc_loader.h"
#include "tpcc/tpcc_procedures.h"

namespace partdb {
namespace {

using tpcc::DecodeTpccResult;
using tpcc::DeliveryArgs;
using tpcc::NewOrderArgs;
using tpcc::OrderStatusArgs;
using tpcc::PaymentArgs;
using tpcc::StockLevelArgs;
using tpcc::TpccArgs;
using tpcc::TpccResult;

std::string Encode(const Payload& p) {
  std::string buf;
  WireWriter w(&buf);
  p.SerializeTo(w);
  return buf;
}

/// The registered KV procedure, whose args codec the server runs.
const ProcedureDescriptor& KvProc() {
  static const ProcedureDescriptor d = KvReadUpdateProcedure(KvWorkloadOptions{});
  return d;
}

/// The registered TPC-C procedure of `kind`.
const ProcedureDescriptor& TpccProc(TpccArgs::Kind kind) {
  static const std::vector<ProcedureDescriptor> procs = tpcc::TpccProcedures(tpcc::TpccScale{});
  auto it = std::find_if(procs.begin(), procs.end(), [kind](const ProcedureDescriptor& d) {
    return d.name == tpcc::TpccProcName(kind);
  });
  PARTDB_CHECK(it != procs.end());
  return *it;
}

/// `d`'s args decoder as the server runs it: DecodeArgs over the codec.
auto ArgsDecoder(const ProcedureDescriptor& d) {
  return [&d](WireReader& r) { return DecodeArgs(d, r); };
}

/// The three properties every wire payload must satisfy: ByteSize() is the
/// encoded size, the decoder consumes the span exactly, and re-encoding the
/// decoded payload reproduces the bytes bit-identically.
template <typename Decoder>
PayloadPtr ExpectRoundTrip(const Payload& p, Decoder decode) {
  const std::string bytes = Encode(p);
  EXPECT_EQ(p.ByteSize(), bytes.size());
  WireReader r(bytes);
  PayloadPtr back = decode(r);
  EXPECT_NE(back, nullptr);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(Encode(*back), bytes);
  return back;
}

TEST(Wire, PrimitivesRoundTrip) {
  std::string buf;
  WireWriter w(&buf);
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(-1234567890123ll);
  w.F64(3.25);
  InlineString<8> s(std::string_view("abc"));
  w.Str(s);
  EXPECT_EQ(w.bytes_written(), buf.size());

  WireReader r(buf);
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.I64(), -1234567890123ll);
  EXPECT_EQ(r.F64(), 3.25);
  EXPECT_EQ(r.Str<8>(), s);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Wire, CountingWriterMatchesAppendingWriter) {
  std::string buf;
  WireWriter append(&buf);
  WireWriter count;
  for (WireWriter* w : {&append, &count}) {
    w->U32(7);
    w->Str(InlineString<16>(std::string_view("BARBARBAR")));
    w->Pad(3);
  }
  EXPECT_EQ(count.bytes_written(), buf.size());
  EXPECT_EQ(append.bytes_written(), buf.size());
}

TEST(Wire, ReaderRefusesOverRead) {
  const char bytes[] = {1, 2, 3};
  WireReader r(bytes, 3);
  r.U16();
  EXPECT_TRUE(r.ok());
  r.U32();  // only 1 byte left
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U64(), 0u);  // reads after failure return zero
  EXPECT_FALSE(r.AtEnd());
}

TEST(Wire, ReaderRejectsOversizedInlineStringLength) {
  std::string buf;
  WireWriter w(&buf);
  w.U8(9);  // length 9 in an InlineString<8>
  w.Pad(8);
  WireReader r(buf);
  r.Str<8>();
  EXPECT_FALSE(r.ok());
}

// --- KV payloads -------------------------------------------------------------

std::shared_ptr<KvArgs> RandomKvArgs(Rng& rng, int num_partitions) {
  auto args = std::make_shared<KvArgs>();
  args->keys.resize(num_partitions);
  args->rounds = rng.Bernoulli(0.3) ? 2 : 1;
  args->abort_txn = rng.Bernoulli(0.2);
  args->abort_at = rng.Bernoulli(0.2) ? static_cast<PartitionId>(rng.Uniform(num_partitions))
                                      : -1;
  for (PartitionId p = 0; p < num_partitions; ++p) {
    const int n = static_cast<int>(rng.Uniform(6));
    for (int i = 0; i < n; ++i) {
      args->keys[p].push_back(MicrobenchKey(static_cast<int>(rng.Uniform(100)), p,
                                            static_cast<int>(rng.Uniform(1000))));
    }
  }
  return args;
}

TEST(KvCodec, ArgsRoundTripProperty) {
  Rng rng(20260726);
  for (int it = 0; it < 500; ++it) {
    const int parts = 1 + static_cast<int>(rng.Uniform(5));
    auto args = RandomKvArgs(rng, parts);
    PayloadPtr back = ExpectRoundTrip(*args, ArgsDecoder(KvProc()));
    const auto& b = PayloadCast<KvArgs>(*back);
    EXPECT_EQ(b.keys, args->keys);
    EXPECT_EQ(b.rounds, args->rounds);
    EXPECT_EQ(b.abort_txn, args->abort_txn);
    EXPECT_EQ(b.abort_at, args->abort_at);
  }
}

TEST(KvCodec, ArgsRoundTripShortKeys) {
  auto args = std::make_shared<KvArgs>();
  args->keys.resize(2);
  args->keys[0].push_back(KvKey(std::string_view("")));
  args->keys[0].push_back(KvKey(std::string_view("a")));
  args->keys[1].push_back(KvKey(std::string_view("abcdefgh")));
  PayloadPtr back = ExpectRoundTrip(*args, ArgsDecoder(KvProc()));
  EXPECT_EQ(PayloadCast<KvArgs>(*back).keys, args->keys);
}

TEST(KvCodec, ResultAndRoundInputRoundTripProperty) {
  Rng rng(77);
  for (int it = 0; it < 200; ++it) {
    auto result = std::make_shared<KvResult>();
    const int n = static_cast<int>(rng.Uniform(20));
    for (int i = 0; i < n; ++i) result->values.push_back(rng.Next());
    PayloadPtr back = ExpectRoundTrip(*result, DecodeKvResult);
    EXPECT_EQ(PayloadCast<KvResult>(*back).values, result->values);

    auto input = std::make_shared<KvRoundInput>();
    input->values.resize(1 + rng.Uniform(4));
    for (auto& vs : input->values) {
      const int m = static_cast<int>(rng.Uniform(8));
      for (int i = 0; i < m; ++i) vs.push_back(rng.Next());
    }
    PayloadPtr iback = ExpectRoundTrip(*input, DecodeKvRoundInput);
    EXPECT_EQ(PayloadCast<KvRoundInput>(*iback).values, input->values);
  }
}

TEST(KvCodec, DecoderRejectsTruncatedAndTrailingBytes) {
  Rng rng(5);
  const auto args = RandomKvArgs(rng, 2);
  const std::string bytes = Encode(*args);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader r(bytes.data(), cut);
    PayloadPtr p = DecodeArgs(KvProc(), r);
    EXPECT_TRUE(p == nullptr || !r.AtEnd()) << "truncation at " << cut << " decoded";
  }
  const std::string extra = bytes + "x";
  WireReader r(extra);
  PayloadPtr p = DecodeArgs(KvProc(), r);
  EXPECT_FALSE(p != nullptr && r.AtEnd());
}

// --- sim cost-model parity ---------------------------------------------------
//
// The pre-codec ByteSize() implementations were hand estimates; the codecs
// were laid out so that at the figure configurations (2 partitions) the
// encoded sizes are the very same numbers. These pins keep the simulated
// network's bandwidth charges — and therefore the figure goldens — stable.

TEST(WireSizeParity, MatchesLegacyHandEstimates) {
  KvWorkloadOptions mb;  // 2 partitions, 12 keys
  auto sp = std::make_shared<KvArgs>();
  sp->keys.resize(2);
  for (int i = 0; i < mb.keys_per_txn; ++i) sp->keys[0].push_back(MicrobenchKey(0, 0, i));
  EXPECT_EQ(sp->ByteSize(), 32u + 9u * 12u);

  auto result = std::make_shared<KvResult>();
  result->values.assign(12, 1);
  EXPECT_EQ(result->ByteSize(), 8u + 8u * 12u);

  auto input = std::make_shared<KvRoundInput>();
  input->values.resize(2);
  input->values[0].assign(6, 1);
  input->values[1].assign(6, 1);
  EXPECT_EQ(input->ByteSize(), 16u + 8u * 12u);

  NewOrderArgs no;
  no.lines.resize(7);
  EXPECT_EQ(no.ByteSize(), 32u + 12u * 7u);
  EXPECT_EQ(PaymentArgs().ByteSize(), 56u);
  EXPECT_EQ(OrderStatusArgs().ByteSize(), 40u);
  EXPECT_EQ(DeliveryArgs().ByteSize(), 32u);
  EXPECT_EQ(StockLevelArgs().ByteSize(), 28u);
  EXPECT_EQ(TpccResult().ByteSize(), 16u);
}

// --- TPC-C payloads ----------------------------------------------------------

TEST(TpccCodec, NewOrderRoundTripProperty) {
  Rng rng(99);
  for (int it = 0; it < 200; ++it) {
    NewOrderArgs a;
    a.w_id = static_cast<int32_t>(rng.Uniform(100));
    a.d_id = static_cast<int32_t>(rng.Uniform(10)) + 1;
    a.c_id = static_cast<int32_t>(rng.Uniform(3000)) + 1;
    a.entry_d = static_cast<int64_t>(rng.Next());
    const int n = static_cast<int>(rng.Uniform(15));
    for (int i = 0; i < n; ++i) {
      NewOrderArgs::Line l;
      l.i_id = static_cast<int32_t>(rng.Uniform(100000));
      l.supply_w_id = static_cast<int32_t>(rng.Uniform(100));
      l.quantity = static_cast<int32_t>(rng.Uniform(10)) + 1;
      a.lines.push_back(l);
    }
    PayloadPtr back = ExpectRoundTrip(a, ArgsDecoder(TpccProc(TpccArgs::Kind::kNewOrder)));
    const auto& b = PayloadCast<NewOrderArgs>(*back);
    EXPECT_EQ(b.w_id, a.w_id);
    EXPECT_EQ(b.d_id, a.d_id);
    EXPECT_EQ(b.c_id, a.c_id);
    EXPECT_EQ(b.entry_d, a.entry_d);
    ASSERT_EQ(b.lines.size(), a.lines.size());
    for (size_t i = 0; i < a.lines.size(); ++i) {
      EXPECT_EQ(b.lines[i].i_id, a.lines[i].i_id);
      EXPECT_EQ(b.lines[i].supply_w_id, a.lines[i].supply_w_id);
      EXPECT_EQ(b.lines[i].quantity, a.lines[i].quantity);
    }
  }
}

TEST(TpccCodec, PaymentOrderStatusRoundTripProperty) {
  Rng rng(100);
  for (int it = 0; it < 200; ++it) {
    PaymentArgs pay;
    pay.w_id = static_cast<int32_t>(rng.Uniform(100));
    pay.d_id = static_cast<int32_t>(rng.Uniform(10)) + 1;
    pay.c_w_id = static_cast<int32_t>(rng.Uniform(100));
    pay.c_d_id = static_cast<int32_t>(rng.Uniform(10)) + 1;
    pay.c_id = rng.Bernoulli(0.4) ? 0 : static_cast<int32_t>(rng.Uniform(3000)) + 1;
    if (pay.c_id == 0) pay.c_last = tpcc::LastName(static_cast<int>(rng.Uniform(1000)));
    pay.amount = static_cast<double>(rng.Uniform(500000)) / 100.0;
    pay.date = static_cast<int64_t>(rng.Uniform(1u << 30));
    PayloadPtr back = ExpectRoundTrip(pay, ArgsDecoder(TpccProc(TpccArgs::Kind::kPayment)));
    const auto& b = PayloadCast<PaymentArgs>(*back);
    EXPECT_EQ(b.c_last, pay.c_last);
    EXPECT_EQ(b.amount, pay.amount);
    EXPECT_EQ(b.c_w_id, pay.c_w_id);

    OrderStatusArgs os;
    os.w_id = static_cast<int32_t>(rng.Uniform(100));
    os.d_id = static_cast<int32_t>(rng.Uniform(10)) + 1;
    os.c_id = rng.Bernoulli(0.4) ? 0 : static_cast<int32_t>(rng.Uniform(3000)) + 1;
    if (os.c_id == 0) os.c_last = tpcc::LastName(static_cast<int>(rng.Uniform(1000)));
    PayloadPtr oback = ExpectRoundTrip(os, ArgsDecoder(TpccProc(TpccArgs::Kind::kOrderStatus)));
    EXPECT_EQ(PayloadCast<OrderStatusArgs>(*oback).c_last, os.c_last);
  }
}

TEST(TpccCodec, DeliveryStockLevelResultRoundTrip) {
  DeliveryArgs d;
  d.w_id = 3;
  d.carrier_id = 7;
  d.date = 123456789;
  PayloadPtr dback = ExpectRoundTrip(d, ArgsDecoder(TpccProc(TpccArgs::Kind::kDelivery)));
  EXPECT_EQ(PayloadCast<DeliveryArgs>(*dback).carrier_id, 7);

  StockLevelArgs s;
  s.w_id = 2;
  s.d_id = 9;
  s.threshold = 15;
  PayloadPtr sback = ExpectRoundTrip(s, ArgsDecoder(TpccProc(TpccArgs::Kind::kStockLevel)));
  EXPECT_EQ(PayloadCast<StockLevelArgs>(*sback).threshold, 15);

  TpccResult res;
  res.id = 4242;
  res.amount = 99.5;
  PayloadPtr rback = ExpectRoundTrip(res, DecodeTpccResult);
  EXPECT_EQ(PayloadCast<TpccResult>(*rback).id, 4242);
  EXPECT_EQ(PayloadCast<TpccResult>(*rback).amount, 99.5);
}

/// A Metrics value with every field distinct and non-zero.
Metrics EveryFieldMetrics() {
  Metrics m;
  m.committed = 1;
  m.sp_committed = 2;
  m.mp_committed = 3;
  m.user_aborts = 4;
  m.speculative_execs = 5;
  m.cascading_reexecs = 6;
  m.lock_fast_path = 7;
  m.locked_txns = 8;
  m.lock_waits = 9;
  m.local_deadlocks = 10;
  m.timeout_aborts = 11;
  m.txn_retries = 12;
  m.occ_survivors = 13;
  m.mvcc_snapshot_reads = 14;
  m.mvcc_conflict_waits = 15;
  m.lock_acquire_ns = 16;
  m.lock_release_ns = 17;
  m.lock_table_ns = 18;
  m.window_ns = 19;
  m.partition_busy_ns = 20;
  m.coord_busy_ns = 21;
  m.num_partitions = 22;
  for (int64_t v : {5, 70, 900, 12000}) m.sp_latency.Add(v);
  for (int64_t v : {3, 4000, 250000}) m.mp_latency.Add(v);
  m.procs.resize(2);
  m.procs[0].committed = 23;
  m.procs[0].user_aborts = 24;
  for (int64_t v : {8, 600, 70000}) m.procs[0].latency.Add(v);
  m.procs[1].committed = 25;  // counts only, no latency samples
  m.procs[1].user_aborts = 26;
  return m;
}

// The kMetrics frame carries every Metrics counter and both histograms, so a
// remote EndMeasurement() returns the same Metrics an embedded one does.
TEST(MetricsCodec, EveryFieldRoundTrips) {
  const Metrics m = EveryFieldMetrics();

  Metrics back;
  ASSERT_TRUE(DecodeMetrics(EncodeMetrics(m), &back));
  EXPECT_EQ(back.committed, m.committed);
  EXPECT_EQ(back.sp_committed, m.sp_committed);
  EXPECT_EQ(back.mp_committed, m.mp_committed);
  EXPECT_EQ(back.user_aborts, m.user_aborts);
  EXPECT_EQ(back.speculative_execs, m.speculative_execs);
  EXPECT_EQ(back.cascading_reexecs, m.cascading_reexecs);
  EXPECT_EQ(back.lock_fast_path, m.lock_fast_path);
  EXPECT_EQ(back.locked_txns, m.locked_txns);
  EXPECT_EQ(back.lock_waits, m.lock_waits);
  EXPECT_EQ(back.local_deadlocks, m.local_deadlocks);
  EXPECT_EQ(back.timeout_aborts, m.timeout_aborts);
  EXPECT_EQ(back.txn_retries, m.txn_retries);
  EXPECT_EQ(back.occ_survivors, m.occ_survivors);
  EXPECT_EQ(back.mvcc_snapshot_reads, m.mvcc_snapshot_reads);
  EXPECT_EQ(back.mvcc_conflict_waits, m.mvcc_conflict_waits);
  EXPECT_EQ(back.lock_acquire_ns, m.lock_acquire_ns);
  EXPECT_EQ(back.lock_release_ns, m.lock_release_ns);
  EXPECT_EQ(back.lock_table_ns, m.lock_table_ns);
  EXPECT_EQ(back.window_ns, m.window_ns);
  EXPECT_EQ(back.partition_busy_ns, m.partition_busy_ns);
  EXPECT_EQ(back.coord_busy_ns, m.coord_busy_ns);
  EXPECT_EQ(back.num_partitions, m.num_partitions);
  for (auto hist : {&Metrics::sp_latency, &Metrics::mp_latency}) {
    const Histogram& want = m.*hist;
    const Histogram& got = back.*hist;
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(got.min(), want.min());
    EXPECT_EQ(got.max(), want.max());
    EXPECT_EQ(got.raw_sum(), want.raw_sum());
    EXPECT_EQ(got.NonZeroBuckets(), want.NonZeroBuckets());
  }
  ASSERT_EQ(back.procs.size(), m.procs.size());
  for (size_t i = 0; i < m.procs.size(); ++i) {
    SCOPED_TRACE(i);
    const Metrics::ProcOutcomes& want = m.procs[i];
    const Metrics::ProcOutcomes& got = back.procs[i];
    EXPECT_EQ(got.committed, want.committed);
    EXPECT_EQ(got.user_aborts, want.user_aborts);
    EXPECT_EQ(got.latency.count(), want.latency.count());
    EXPECT_EQ(got.latency.min(), want.latency.min());
    EXPECT_EQ(got.latency.max(), want.latency.max());
    EXPECT_EQ(got.latency.raw_sum(), want.latency.raw_sum());
    EXPECT_EQ(got.latency.NonZeroBuckets(), want.latency.NonZeroBuckets());
  }
}

// The kMetrics body is part of wire version kWireVersion: its bytes may
// change only together with a version bump.
TEST(MetricsCodec, WireBytesArePinned) {
  static constexpr char kHex[] =
      "01000000000000000200000000000000030000000000000004000000000000000500000000000000"
      "06000000000000000700000000000000080000000000000009000000000000000a00000000000000"
      "0b000000000000000c000000000000000d000000000000000e000000000000000f00000000000000"
      "10000000000000001100000000000000120000000000000013000000000000001400000000000000"
      "15000000000000001600000004000000000000000500000000000000e02e00000000000000000000"
      "8057c940040000001000000001000000000000002c00000001000000000000004700000001000000"
      "000000006200000001000000000000000300000000000000030000000000000090d0030000000000"
      "0000000098010f41030000000b000000010000000000000057000000010000000000000082000000"
      "01000000000000000200000017000000000000001800000000000000030000000000000008000000"
      "00000000701101000000000000000000003df1400300000015000000010000000000000043000000"
      "010000000000000075000000010000000000000019000000000000001a0000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000";
  const std::string body = EncodeMetrics(EveryFieldMetrics());
  std::string hex;
  for (unsigned char c : body) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xf]);
  }
  EXPECT_EQ(hex, kHex);
  EXPECT_EQ(kWireVersion, 3);
}

// The per-procedure count is remote input: a count the body cannot hold is
// refused before anything is sized from it, and a body cut off inside an
// entry is refused too.
TEST(MetricsCodec, MalformedProcSectionIsRejected) {
  Metrics m;
  m.procs.resize(1);
  m.procs[0].committed = 1;
  m.procs[0].latency.Add(1000);
  const std::string good = EncodeMetrics(m);
  Metrics back;
  ASSERT_TRUE(DecodeMetrics(good, &back));

  // The count is the last field of an encoding with no procedures.
  const std::string empty = EncodeMetrics(Metrics{});
  const size_t count_at = empty.size() - 4;
  ASSERT_EQ(static_cast<uint8_t>(good[count_at]), 1u);
  std::string huge = good;
  for (size_t i = 0; i < 4; ++i) huge[count_at + i] = '\xff';
  EXPECT_FALSE(DecodeMetrics(huge, &back));

  // Cut inside the entry: after its counts, and inside its histogram.
  EXPECT_FALSE(DecodeMetrics(good.substr(0, count_at + 4 + 16), &back));
  EXPECT_FALSE(DecodeMetrics(good.substr(0, good.size() - 1), &back));
  // And a trailing byte after the last entry.
  EXPECT_FALSE(DecodeMetrics(good + '\0', &back));
}

}  // namespace
}  // namespace partdb

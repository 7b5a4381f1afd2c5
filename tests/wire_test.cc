// Wire-format tests: primitive round trips and bounds checking, property
// tests that every KV / TPC-C args/result payload encodes -> decodes
// bit-identically with ByteSize() equal to the encoded size, byte pins of the
// payloads and the frame bodies, and the size-parity pins that keep the sim
// cost model's byte accounting identical to the pre-codec hand estimates (the
// figure goldens depend on them).
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

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xf]);
  }
  return hex;
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

/// Bytes [size(), N) of `s` are zero.
template <size_t N>
void ExpectZeroPadding(const InlineString<N>& s, const char* what) {
  for (size_t i = s.size(); i < N; ++i) {
    EXPECT_EQ(s.data()[i], '\0') << what << ": N=" << N << " byte " << i;
  }
}

template <size_t N>
void CheckPaddingStaysZero() {
  ExpectZeroPadding(InlineString<N>(), "default");
  ExpectZeroPadding(InlineString<N>(std::string_view("ab")), "short");
  const std::string full(N, 'x');
  ExpectZeroPadding(InlineString<N>(full), "full width");
  InlineString<N> s(full);
  s = InlineString<N>(std::string_view("ab"));
  ExpectZeroPadding(s, "short assigned over full width");

  std::string block(1, '\2');
  block += "ab";
  block.append(N - 2, '\xff');
  WireReader r(block);
  const InlineString<N> decoded = r.Str<N>();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded.view(), "ab");
  ExpectZeroPadding(decoded, "decoded from 0xFF padding");
}

// WireWriter::Str writes an InlineString's whole store, so every way of
// making one must leave the bytes past its length zero.
TEST(Wire, InlineStringPaddingStaysZero) {
  CheckPaddingStaysZero<8>();
  CheckPaddingStaysZero<20>();
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

// Round trips pass whatever order the encoder and decoder agree on; these
// pins hold every KV field at its byte offset, so argument bytes in a
// command log written earlier still decode to the same fields.
TEST(KvCodec, WireBytesArePinned) {
  KvArgs sp;
  sp.keys.resize(2);
  sp.keys[0] = {MicrobenchKey(1, 0, 0), MicrobenchKey(1, 0, 1), KvKey(std::string_view("ab"))};
  EXPECT_EQ(Hex(Encode(sp)),
            "0100000000000000ffffffff02000000030000000000000003000000000000000800000000010000"
            "00080100000001000000026162000000000000");

  KvArgs mp;
  mp.keys.resize(2);
  mp.keys[0] = {MicrobenchKey(2, 0, 5)};
  mp.keys[1] = {MicrobenchKey(2, 1, 6), MicrobenchKey(2, 1, 7)};
  mp.rounds = 2;
  mp.read_only = true;
  mp.abort_at = 1;
  EXPECT_EQ(Hex(Encode(mp)),
            "02000000020000000100000002000000030000000000000001000000020000000805000000020000"
            "00080600000102000000080700000102000000");

  KvResult res;
  res.values = {1, 0x0102030405060708};
  EXPECT_EQ(Hex(Encode(res)), "020000000000000001000000000000000807060504030201");

  KvRoundInput in;
  in.values = {{7}, {8, 9}};
  EXPECT_EQ(Hex(Encode(in)),
            "02000000030000000100000002000000070000000000000008000000000000000900000000000000");
}

// Past the key lists' inline room: 3 partitions, a 20-key list and an empty
// one. Where the lists live does not change the bytes.
TEST(KvCodec, SpilledKeyListsKeepTheirBytes) {
  auto args = std::make_shared<KvArgs>();
  args->keys.resize(3);
  for (int i = 0; i < 20; ++i) args->keys[0].push_back(MicrobenchKey(3, 0, i));
  args->keys[2].push_back(MicrobenchKey(3, 2, 0));
  ASSERT_FALSE(args->keys.IsInline());
  ASSERT_FALSE(args->keys[0].IsInline());
  EXPECT_EQ(Hex(Encode(*args)),
            "0100000000000000ffffffff03000000150000000000000014000000000000000100000008000000"
            "00030000000801000000030000000802000000030000000803000000030000000804000000030000"
            "00080500000003000000080600000003000000080700000003000000080800000003000000080900"
            "000003000000080a00000003000000080b00000003000000080c00000003000000080d0000000300"
            "0000080e00000003000000080f000000030000000810000000030000000811000000030000000812"
            "00000003000000081300000003000000080000000203000000");

  PayloadPtr back = ExpectRoundTrip(*args, ArgsDecoder(KvProc()));
  const auto& b = PayloadCast<KvArgs>(*back);
  EXPECT_EQ(b.keys, args->keys);
  EXPECT_TRUE(b.keys[1].empty());
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

// --- frame bodies -------------------------------------------------------------
//
// The Hello, Request, Response and CloseSession bodies are part of wire
// version kWireVersion. Round trips pass any field order both directions
// share, so these pins hold every field at its byte offset, and decoding the
// pinned bytes gives the fields back.

TEST(FrameCodec, HelloBytesArePinned) {
  HelloBody h;
  h.max_inflight = 7;
  h.mode = 0;
  h.max_sessions = 0x01020304;
  h.proc_names = {"kv", "", "new_order"};
  const std::string body = EncodeHello(h);
  EXPECT_EQ(Hex(body), "070000000000000000040302010300000002006b76000009006e65775f6f72646572");

  HelloBody back;
  ASSERT_TRUE(DecodeHello(body, &back));
  EXPECT_EQ(back.max_inflight, h.max_inflight);
  EXPECT_EQ(back.mode, h.mode);
  EXPECT_EQ(back.max_sessions, h.max_sessions);
  EXPECT_EQ(back.proc_names, h.proc_names);
  EXPECT_FALSE(DecodeHello(body + '\0', &back));
  EXPECT_FALSE(DecodeHello(body.substr(0, body.size() - 1), &back));
}

TEST(FrameCodec, RequestBytesArePinned) {
  RequestHeader h;
  h.session_id = 3;
  h.seq = 0x0102030405060708;
  h.proc = 1;
  KvArgs args;
  args.keys.resize(2);
  args.keys[0] = {MicrobenchKey(4, 0, 1)};
  args.keys[1] = {MicrobenchKey(4, 1, 2), KvKey(std::string_view("xy"))};
  args.rounds = 2;
  args.abort_at = 1;
  std::string body;
  WireWriter w(&body);
  AppendRequestBody(w, h, args);
  EXPECT_EQ(Hex(body),
            "03000000080706050403020101000000020000000000000001000000020000000300000000000000"
            "0100000002000000080100000004000000080200000104000000027879000000000000");

  WireReader r(body);
  RequestHeader hback;
  ASSERT_TRUE(DecodeRequestHeader(r, &hback));
  EXPECT_EQ(hback.session_id, h.session_id);
  EXPECT_EQ(hback.seq, h.seq);
  EXPECT_EQ(hback.proc, h.proc);
  PayloadPtr back = DecodeArgs(KvProc(), r);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(r.AtEnd());
  const auto& a = PayloadCast<KvArgs>(*back);
  EXPECT_EQ(a.keys, args.keys);
  EXPECT_EQ(a.rounds, args.rounds);
  EXPECT_EQ(a.abort_at, args.abort_at);
  EXPECT_FALSE(a.abort_txn);
  EXPECT_FALSE(a.read_only);
}

TEST(FrameCodec, ResponseBytesArePinned) {
  ResponseHeader h;
  h.session_id = 5;
  h.seq = 9;
  h.status = TxnStatus::kUserAbort;
  h.attempts = 2;
  h.has_result = true;
  KvResult result;
  result.values = {11, 0x0a0b0c0d0e0f1011};
  std::string body;
  WireWriter w(&body);
  AppendResponseBody(w, h, &result);
  EXPECT_EQ(Hex(body),
            "05000000090000000000000001020000000102000000000000000b0000000000000011100f0e0d0c"
            "0b0a");

  WireReader r(body);
  ResponseHeader hback;
  ASSERT_TRUE(DecodeResponseHeader(r, &hback));
  EXPECT_EQ(hback.session_id, h.session_id);
  EXPECT_EQ(hback.seq, h.seq);
  EXPECT_EQ(hback.status, h.status);
  EXPECT_EQ(hback.attempts, h.attempts);
  EXPECT_TRUE(hback.has_result);
  PayloadPtr back = DecodeKvResult(r);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(PayloadCast<KvResult>(*back).values, result.values);

  // A rejection carries no result; a status past kRejected is refused.
  ResponseHeader rejected;
  rejected.session_id = 5;
  rejected.seq = 10;
  rejected.status = TxnStatus::kRejected;
  rejected.attempts = 0;
  std::string bare;
  WireWriter bw(&bare);
  AppendResponseBody(bw, rejected, nullptr);
  EXPECT_EQ(Hex(bare), "050000000a00000000000000020000000000");
  WireReader rr(bare);
  ASSERT_TRUE(DecodeResponseHeader(rr, &hback));
  EXPECT_EQ(hback.status, TxnStatus::kRejected);
  EXPECT_FALSE(hback.has_result);
  EXPECT_TRUE(rr.AtEnd());
  bare[12] = 3;
  WireReader bad(bare);
  EXPECT_FALSE(DecodeResponseHeader(bad, &hback));
}

TEST(FrameCodec, CloseSessionBytesArePinned) {
  std::string body;
  WireWriter w(&body);
  AppendCloseSessionBody(w, CloseSessionBody{0xDEADBEEF});
  EXPECT_EQ(Hex(body), "efbeadde");

  CloseSessionBody back;
  ASSERT_TRUE(DecodeCloseSessionBody(body, &back));
  EXPECT_EQ(back.session_id, 0xDEADBEEFu);
  EXPECT_FALSE(DecodeCloseSessionBody(body + '\0', &back));
  EXPECT_FALSE(DecodeCloseSessionBody(body.substr(0, 3), &back));
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

// Round trips pass whatever order the encoder and decoder agree on; these
// pins hold every field of every TPC-C layout at its byte offset, so argument
// bytes in a command log written earlier still decode to the same fields.
TEST(TpccCodec, WireBytesArePinned) {
  NewOrderArgs no;
  no.w_id = 1;
  no.d_id = 2;
  no.c_id = 3;
  no.entry_d = 0x0405060708;
  no.lines = {{11, 12, 13}, {21, 22, 23}, {31, 32, 33}};
  EXPECT_EQ(Hex(Encode(no)),
            "01000000020000000300000003000000080706050400000000000000000000000b0000000c000000"
            "0d0000001500000016000000170000001f0000002000000021000000");

  PaymentArgs pay;
  pay.w_id = 1;
  pay.d_id = 2;
  pay.c_w_id = 3;
  pay.c_d_id = 4;
  pay.c_id = 5;
  pay.c_last = tpcc::Str16(std::string_view("BARPRIESE"));
  pay.amount = 12.5;
  pay.date = 6;
  EXPECT_EQ(Hex(Encode(pay)),
            "01000000020000000300000004000000050000000000000000002940060000000000000009424152"
            "50524945534500000000000000000000");

  OrderStatusArgs os;
  os.w_id = 1;
  os.d_id = 2;
  os.c_id = 3;
  os.c_last = tpcc::Str16(std::string_view("OUGHTABLE"));
  EXPECT_EQ(Hex(Encode(os)),
            "010000000200000003000000094f5547485441424c45000000000000000000000000000000000000");

  DeliveryArgs d;
  d.w_id = 1;
  d.carrier_id = 2;
  d.date = 3;
  EXPECT_EQ(Hex(Encode(d)),
            "0100000002000000030000000000000000000000000000000000000000000000");

  StockLevelArgs s;
  s.w_id = 1;
  s.d_id = 2;
  s.threshold = 3;
  EXPECT_EQ(Hex(Encode(s)),
            "01000000020000000300000000000000000000000000000000000000");

  TpccResult res;
  res.id = 7;
  res.amount = -0.25;
  EXPECT_EQ(Hex(Encode(res)),
            "0700000000000000000000000000d0bf");
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

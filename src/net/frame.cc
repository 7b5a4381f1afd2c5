#include "net/frame.h"

#include <utility>

#include "common/logging.h"

namespace partdb {

namespace {

/// Header bytes before the body: u32 length + u8 version + u8 type.
constexpr size_t kHeaderBytes = 6;

}  // namespace

FrameDecode TryDecodeFrame(std::string_view buf, FrameView* out, size_t* consumed) {
  if (buf.size() < kHeaderBytes) {
    // Reject impossible lengths as soon as the prefix is visible, not only
    // once kHeaderBytes arrived: 4 bytes are enough to know.
    if (buf.size() >= 4) {
      WireReader pr(buf.data(), 4);
      const uint32_t len = pr.U32();
      if (len < 2 || len > kMaxFrameBytes) return FrameDecode::kError;
    }
    return FrameDecode::kNeedMore;
  }
  WireReader pr(buf.data(), kHeaderBytes);
  const uint32_t len = pr.U32();
  if (len < 2 || len > kMaxFrameBytes) return FrameDecode::kError;
  if (pr.U8() != kWireVersion) return FrameDecode::kError;
  const uint8_t type = pr.U8();
  const size_t total = 4 + static_cast<size_t>(len);
  if (buf.size() < total) return FrameDecode::kNeedMore;
  out->type = static_cast<FrameType>(type);
  out->body = buf.substr(kHeaderBytes, len - 2);
  *consumed = total;
  return FrameDecode::kFrame;
}

bool ReadFrame(TcpConn& conn, Frame* out) {
  char prefix[kHeaderBytes];
  if (!conn.ReadFull(prefix, kHeaderBytes)) return false;
  WireReader pr(prefix, kHeaderBytes);
  const uint32_t len = pr.U32();
  if (len < 2 || len > kMaxFrameBytes) return false;
  if (pr.U8() != kWireVersion) return false;
  out->type = static_cast<FrameType>(pr.U8());
  // Read the body straight into the frame: this runs once per transaction,
  // so no intermediate buffer.
  out->body.resize(len - 2);
  return out->body.empty() || conn.ReadFull(out->body.data(), out->body.size());
}

bool WriteFrame(TcpConn& conn, FrameType type, std::string_view body) {
  std::string frame;
  frame.reserve(kHeaderBytes + body.size());
  AppendFrame(&frame, type, body);
  return conn.WriteAll(frame.data(), frame.size());
}

size_t BeginFrame(std::string* out, FrameType type) {
  const size_t at = out->size();
  WireWriter w(out);
  w.U32(0);  // patched by EndFrame
  w.U8(kWireVersion);
  w.U8(static_cast<uint8_t>(type));
  return at;
}

void EndFrame(std::string* out, size_t at) {
  const size_t len = out->size() - at - 4;  // version + type + body
  PARTDB_CHECK(len >= 2 && len <= kMaxFrameBytes);
  for (size_t i = 0; i < 4; ++i) {
    (*out)[at + i] = static_cast<char>((len >> (8 * i)) & 0xFF);
  }
}

void AppendFrame(std::string* out, FrameType type, std::string_view body) {
  const size_t at = BeginFrame(out, type);
  out->append(body.data(), body.size());
  EndFrame(out, at);
}

// --- body layouts ------------------------------------------------------------
// One field list per body (README "Wire protocol"); the encoders and the
// decoders below both run it.

namespace {

template <typename Io, FieldsOf<HelloBody> H>
void Fields(Io& io, H& h) {
  io.Field(h.max_inflight);
  io.Field(h.mode);
  io.Field(h.max_sessions);
  io.Seq32(h.proc_names, sizeof(uint16_t));
  for (auto& name : h.proc_names) io.Bytes16(name);
}

template <typename Io, FieldsOf<RequestHeader> H>
void Fields(Io& io, H& h) {
  io.Field(h.session_id);
  io.Field(h.seq);
  io.Field(h.proc);
}

template <typename Io, FieldsOf<ResponseHeader> H>
void Fields(Io& io, H& h) {
  io.Field(h.session_id);
  io.Field(h.seq);
  io.Enum(h.status, TxnStatus::kRejected);
  io.Field(h.attempts);
  io.Field(h.has_result);
}

template <typename Io, FieldsOf<CloseSessionBody> B>
void Fields(Io& io, B& b) {
  io.Field(b.session_id);
}

// A histogram stays hand-written: the reader rebuilds it through
// Histogram::FromRaw from its sparse buckets — count, min, max, sum, a u32
// bucket count, then u32 index | u64 count per non-empty bucket.

/// count, min, max, sum and the bucket count of a histogram with no buckets.
constexpr size_t kMinHistogramBytes = 8 + 8 + 8 + 8 + 4;

void HistogramField(WireWriter& w, const Histogram& h) {
  w.U64(h.count());
  w.I64(h.raw_min());
  w.I64(h.max());
  w.F64(h.raw_sum());
  const auto nonzero = h.NonZeroBuckets();
  w.U32(static_cast<uint32_t>(nonzero.size()));
  for (const auto& [idx, n] : nonzero) {
    w.U32(idx);
    w.U64(n);
  }
}

void HistogramField(WireReader& r, Histogram& out) {
  const uint64_t count = r.U64();
  const int64_t min = r.I64();
  const int64_t max = r.I64();
  const double sum = r.F64();
  const uint32_t n = r.U32();
  if (n > r.remaining() / 12) return r.MarkCorrupt();
  std::vector<std::pair<uint32_t, uint64_t>> nonzero;
  uint64_t total = 0;
  nonzero.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t idx = r.U32();
    const uint64_t c = r.U64();
    // Ascending in-range indices (the encoder's invariant): a corrupt frame
    // must fail here, not inside FromRaw's CHECKs.
    if (idx >= static_cast<uint32_t>(Histogram::num_buckets())) return r.MarkCorrupt();
    if (!nonzero.empty() && idx <= nonzero.back().first) return r.MarkCorrupt();
    nonzero.emplace_back(idx, c);
    total += c;
  }
  if (!r.ok() || total != count) return r.MarkCorrupt();
  out = Histogram::FromRaw(count, min, max, sum, nonzero);
}

template <typename Io, FieldsOf<Metrics> M>
void Fields(Io& io, M& m) {
  for (const MetricsCounter& c : kMetricsCounters) io.Field(m.*c.field);
  for (Duration Metrics::*f : kMetricsLockTimes) io.Field(m.*f);
  io.Field(m.window_ns);
  io.Field(m.partition_busy_ns);
  io.Field(m.coord_busy_ns);
  io.Field(m.num_partitions);
  HistogramField(io, m.sp_latency);
  HistogramField(io, m.mp_latency);
  // The count is remote input: an entry is at least two u64s and an empty
  // histogram.
  io.Seq32(m.procs, 16 + kMinHistogramBytes);
  for (auto& p : m.procs) {
    io.Field(p.committed);
    io.Field(p.user_aborts);
    HistogramField(io, p.latency);
  }
}

/// Encodes a whole body into a fresh string.
template <typename Body>
std::string EncodeBody(const Body& b) {
  std::string body;
  WireWriter w(&body);
  Fields(w, b);
  return body;
}

/// Strict whole-body decode: every byte consumed, no read failed.
template <typename Body>
bool DecodeBody(std::string_view body, Body* out) {
  WireReader r(body);
  Fields(r, *out);
  return r.AtEnd();
}

}  // namespace

std::string EncodeHello(const HelloBody& h) { return EncodeBody(h); }
bool DecodeHello(std::string_view body, HelloBody* out) { return DecodeBody(body, out); }

void AppendRequestBody(WireWriter& w, const RequestHeader& h, const Payload& args) {
  Fields(w, h);
  args.SerializeTo(w);
}

bool DecodeRequestHeader(WireReader& r, RequestHeader* out) {
  Fields(r, *out);
  return r.ok();
}

void AppendResponseBody(WireWriter& w, const ResponseHeader& h, const Payload* result) {
  Fields(w, h);
  if (h.has_result) {
    PARTDB_CHECK(result != nullptr);
    result->SerializeTo(w);
  }
}

bool DecodeResponseHeader(WireReader& r, ResponseHeader* out) {
  Fields(r, *out);
  return r.ok();
}

void AppendCloseSessionBody(WireWriter& w, const CloseSessionBody& b) { Fields(w, b); }

bool DecodeCloseSessionBody(std::string_view body, CloseSessionBody* out) {
  return DecodeBody(body, out);
}

std::string EncodeMetrics(const Metrics& m) { return EncodeBody(m); }

bool DecodeMetrics(std::string_view body, Metrics* out) {
  // Decoded aside, so a refused body leaves *out as it was.
  Metrics m;
  if (!DecodeBody(body, &m)) return false;
  *out = std::move(m);
  return true;
}

}  // namespace partdb

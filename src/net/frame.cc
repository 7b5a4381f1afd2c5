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

std::string EncodeHello(const HelloBody& h) {
  std::string body;
  WireWriter w(&body);
  w.U64(h.max_inflight);
  w.U8(h.mode);
  w.U32(h.max_sessions);
  w.U32(static_cast<uint32_t>(h.proc_names.size()));
  for (const std::string& name : h.proc_names) {
    w.U16(static_cast<uint16_t>(name.size()));
    w.Raw(name.data(), name.size());
  }
  return body;
}

bool DecodeHello(std::string_view body, HelloBody* out) {
  WireReader r(body);
  out->max_inflight = r.U64();
  out->mode = r.U8();
  out->max_sessions = r.U32();
  const uint32_t n = r.U32();
  out->proc_names.clear();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    const uint16_t len = r.U16();
    if (len > r.remaining()) return false;
    std::string name(len, '\0');
    r.Raw(name.data(), len);
    out->proc_names.push_back(std::move(name));
  }
  return r.AtEnd();
}

void AppendRequestBody(WireWriter& w, const RequestHeader& h, const Payload& args) {
  w.U32(h.session_id);
  w.U64(h.seq);
  w.U32(static_cast<uint32_t>(h.proc));
  args.SerializeTo(w);
}

bool DecodeRequestHeader(WireReader& r, RequestHeader* out) {
  out->session_id = r.U32();
  out->seq = r.U64();
  out->proc = static_cast<ProcId>(r.U32());
  return r.ok();
}

void AppendResponseBody(WireWriter& w, const ResponseHeader& h, const Payload* result) {
  w.U32(h.session_id);
  w.U64(h.seq);
  w.U8(static_cast<uint8_t>(h.status));
  w.U32(h.attempts);
  w.U8(h.has_result ? 1 : 0);
  if (h.has_result) {
    PARTDB_CHECK(result != nullptr);
    result->SerializeTo(w);
  }
}

bool DecodeResponseHeader(WireReader& r, ResponseHeader* out) {
  out->session_id = r.U32();
  out->seq = r.U64();
  const uint8_t status = r.U8();
  if (status > static_cast<uint8_t>(TxnStatus::kRejected)) return false;
  out->status = static_cast<TxnStatus>(status);
  out->attempts = r.U32();
  out->has_result = r.U8() != 0;
  return r.ok();
}

namespace {

/// count, min, max, sum and the bucket count of a histogram with no buckets.
constexpr size_t kMinHistogramBytes = 8 + 8 + 8 + 8 + 4;

void EncodeHistogram(WireWriter& w, const Histogram& h) {
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

bool DecodeHistogram(WireReader& r, Histogram* out) {
  const uint64_t count = r.U64();
  const int64_t min = r.I64();
  const int64_t max = r.I64();
  const double sum = r.F64();
  const uint32_t n = r.U32();
  if (n > r.remaining() / 12) return false;
  std::vector<std::pair<uint32_t, uint64_t>> nonzero;
  uint64_t total = 0;
  nonzero.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t idx = r.U32();
    const uint64_t c = r.U64();
    // Ascending in-range indices (the encoder's invariant): a corrupt frame
    // must fail here, not inside FromRaw's CHECKs.
    if (idx >= static_cast<uint32_t>(Histogram::num_buckets())) return false;
    if (!nonzero.empty() && idx <= nonzero.back().first) return false;
    nonzero.emplace_back(idx, c);
    total += c;
  }
  if (!r.ok() || total != count) return false;
  *out = Histogram::FromRaw(count, min, max, sum, nonzero);
  return true;
}

}  // namespace

std::string EncodeMetrics(const Metrics& m) {
  std::string body;
  WireWriter w(&body);
  for (uint64_t Metrics::*f : kMetricsCounters) w.U64(m.*f);
  for (Duration Metrics::*f : kMetricsLockTimes) w.I64(m.*f);
  w.I64(m.window_ns);
  w.I64(m.partition_busy_ns);
  w.I64(m.coord_busy_ns);
  w.I32(m.num_partitions);
  EncodeHistogram(w, m.sp_latency);
  EncodeHistogram(w, m.mp_latency);
  w.U32(static_cast<uint32_t>(m.procs.size()));
  for (const Metrics::ProcOutcomes& p : m.procs) {
    w.U64(p.committed);
    w.U64(p.user_aborts);
    EncodeHistogram(w, p.latency);
  }
  return body;
}

bool DecodeMetrics(std::string_view body, Metrics* out) {
  WireReader r(body);
  Metrics m;
  for (uint64_t Metrics::*f : kMetricsCounters) m.*f = r.U64();
  for (Duration Metrics::*f : kMetricsLockTimes) m.*f = r.I64();
  m.window_ns = r.I64();
  m.partition_busy_ns = r.I64();
  m.coord_busy_ns = r.I64();
  m.num_partitions = r.I32();
  if (!DecodeHistogram(r, &m.sp_latency)) return false;
  if (!DecodeHistogram(r, &m.mp_latency)) return false;
  // The count is remote input: bound it by the bytes left (an entry is at
  // least two u64s and an empty histogram) before allocating.
  const uint32_t num_procs = r.U32();
  if (num_procs > r.remaining() / (16 + kMinHistogramBytes)) return false;
  m.procs.resize(num_procs);
  for (Metrics::ProcOutcomes& p : m.procs) {
    p.committed = r.U64();
    p.user_aborts = r.U64();
    if (!DecodeHistogram(r, &p.latency)) return false;
  }
  if (!r.AtEnd()) return false;
  *out = std::move(m);
  return true;
}

}  // namespace partdb

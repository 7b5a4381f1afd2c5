// Wire protocol of the network tier (README "Wire protocol" documents the
// byte-level layouts). Every frame is length-prefixed:
//
//   u32 length | u8 version | u8 type | body (length - 2 bytes)
//
// Version 2 multiplexes many client sessions over one connection: Request,
// Response and CloseSession bodies carry a `session_id` (client-assigned,
// unique per connection; the server binds a server-side Session to each id
// lazily and frees it on CloseSession or disconnect). Request bodies carry
// the procedure id plus the argument payload in its procedure codec
// encoding; response bodies carry the transaction outcome plus the result
// payload. Measurement-control frames let a remote handle run the same
// BeginMeasurement/EndMeasurement protocol as an embedded one (Metrics,
// histograms and per-procedure outcomes included, ships back serialized).
//
// Two consumption styles share the layouts:
//  - blocking, one frame per syscall pair (ReadFrame/WriteFrame) — the
//    connection handshake,
//  - incremental, zero-copy (TryDecodeFrame over a receive buffer, and the
//    Append* encoders writing straight into a reusable batch buffer) — the
//    event-loop hot path, where many frames ride one syscall.
#ifndef PARTDB_NET_FRAME_H_
#define PARTDB_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "msg/payload.h"
#include "msg/wire.h"
#include "net/socket.h"
#include "runtime/metrics.h"

namespace partdb {

/// Protocol version: the first body byte of every frame. A peer speaking a
/// different version is rejected at frame level. v2: multiplexed sessions
/// (session_id in Request/Response, CloseSession, max_sessions in Hello).
/// v3: per-procedure outcomes in the kMetrics body.
inline constexpr uint8_t kWireVersion = 3;

/// Upper bound on one frame body: protects both sides from allocating on a
/// corrupt length prefix.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

enum class FrameType : uint8_t {
  kHello = 1,          // server -> client, once per connection
  kRequest = 2,        // client -> server: invoke a procedure on a session
  kResponse = 3,       // server -> client: transaction outcome
  kBeginMeasure = 4,   // client -> server: start a metrics window
  kMeasureBegun = 5,   // server -> client: ack
  kEndMeasure = 6,     // client -> server: end the window
  kMetrics = 7,        // server -> client: serialized window Metrics
  kCloseSession = 8,   // client -> server: release one multiplexed session
};

struct Frame {
  FrameType type = FrameType::kHello;
  std::string body;
};

/// A decoded frame whose body still lives in the receive buffer it arrived
/// in — valid only until more bytes are consumed from that buffer.
struct FrameView {
  FrameType type = FrameType::kHello;
  std::string_view body;
};

enum class FrameDecode : uint8_t {
  kNeedMore = 0,  // no complete frame yet; read more bytes
  kFrame = 1,     // *out holds one frame; *consumed bytes were used
  kError = 2,     // malformed prefix (bad version / impossible length)
};

/// Incremental, zero-copy frame decoder: examines the front of `buf` and,
/// when a complete frame is present, fills `*out` (body pointing into `buf`)
/// and `*consumed` with the frame's total wire size. The caller owns buffer
/// compaction. Never consumes bytes on kNeedMore/kError.
FrameDecode TryDecodeFrame(std::string_view buf, FrameView* out, size_t* consumed);

/// Reads one frame, blocking. False on EOF, I/O error, version mismatch, or
/// an over-limit length (the connection is then unusable).
bool ReadFrame(TcpConn& conn, Frame* out);

/// Writes one frame, blocking. False when the peer is gone.
bool WriteFrame(TcpConn& conn, FrameType type, std::string_view body);

// --- batch (append-style) encoding -------------------------------------------
//
// The event-loop hot path encodes frames back to back into a reusable
// per-connection buffer and ships the whole batch with one writev — no
// per-frame std::string. BeginFrame writes a placeholder header and returns
// its position; the body is then appended through a WireWriter on the same
// buffer; EndFrame backpatches the length prefix.

/// Appends `len(placeholder) | version | type` to `*out`; returns the offset
/// of the length field for EndFrame.
size_t BeginFrame(std::string* out, FrameType type);

/// Backpatches the length prefix of the frame opened at `at`.
void EndFrame(std::string* out, size_t at);

/// Appends one complete frame with a pre-encoded body.
void AppendFrame(std::string* out, FrameType type, std::string_view body);

// --- body layouts ------------------------------------------------------------

/// kHello: the server's connection preamble — admission bound, execution
/// mode, session capacity, and the procedure table (ids are positions in
/// registration order).
struct HelloBody {
  uint64_t max_inflight = 0;  // 0 = unlimited (DbOptions::max_inflight_per_session)
  uint8_t mode = 0;           // 0 = parallel (the only servable mode)
  /// Server-wide session slots (DbOptions::max_sessions): the most sessions
  /// clients can hold open across every connection combined.
  uint32_t max_sessions = 0;
  std::vector<std::string> proc_names;  // index == ProcId
};

std::string EncodeHello(const HelloBody& h);
bool DecodeHello(std::string_view body, HelloBody* out);

/// kRequest: u32 session_id | u64 seq | u32 proc | args bytes (procedure
/// codec). `seq` is scoped to the session.
struct RequestHeader {
  uint32_t session_id = 0;
  uint64_t seq = 0;
  ProcId proc = kInvalidProc;
};

/// Appends the Request body through an already-open frame's writer.
void AppendRequestBody(WireWriter& w, const RequestHeader& h, const Payload& args);
/// Parses the header and leaves `r` positioned at the args bytes.
bool DecodeRequestHeader(WireReader& r, RequestHeader* out);

/// kResponse: u32 session_id | u64 seq | u8 status | u32 attempts |
/// u8 has_result | result bytes (procedure codec).
enum class TxnStatus : uint8_t { kCommitted = 0, kUserAbort = 1, kRejected = 2 };

struct ResponseHeader {
  uint32_t session_id = 0;
  uint64_t seq = 0;
  TxnStatus status = TxnStatus::kCommitted;
  uint32_t attempts = 1;
  bool has_result = false;
};

/// Appends the Response body through an already-open frame's writer.
void AppendResponseBody(WireWriter& w, const ResponseHeader& h, const Payload* result);
/// Parses the header and leaves `r` positioned at the result bytes.
bool DecodeResponseHeader(WireReader& r, ResponseHeader* out);

// kCloseSession: u32 session_id (one WireWriter::U32 inside the frame).

/// kMetrics body: every counter, both latency histograms and the
/// per-procedure outcomes of a Metrics.
std::string EncodeMetrics(const Metrics& m);
bool DecodeMetrics(std::string_view body, Metrics* out);

}  // namespace partdb

#endif  // PARTDB_NET_FRAME_H_

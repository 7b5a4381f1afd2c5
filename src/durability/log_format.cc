#include "durability/log_format.h"

#include <array>
#include <charconv>

namespace partdb {

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/// t[0] is the bytewise table; t[k][b] is the crc of byte b followed by k
/// zero bytes, so one step can fold eight input bytes with independent
/// lookups instead of a chain of eight dependent ones.
constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  }
  return t;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const CrcTables& t = kCrcTables;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void EncodeLogSegmentHeader(const LogSegmentHeader& h, std::string* out) {
  WireWriter w(out);
  w.U32(kLogMagic);
  w.U32(kLogVersion);
  w.U32(static_cast<uint32_t>(h.partition));
  w.U32(static_cast<uint32_t>(h.num_partitions));
  w.U64(h.first_seq);
  w.U32(static_cast<uint32_t>(h.procs.size()));
  for (const LogProcEntry& p : h.procs) {
    w.U32(static_cast<uint32_t>(p.id));
    w.U16(static_cast<uint16_t>(p.name.size()));
    w.Raw(p.name.data(), p.name.size());
  }
}

namespace {

/// Writes `v` little-endian over the four bytes of `out` at `at` — a length
/// or crc slot reserved before the bytes it describes were written.
void PatchU32(std::string* out, size_t at, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) (*out)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

// `u32 len | bytes` of an args or round-input blob. `out` is the buffer `w`
// appends to: a payload serializes straight into it, into a length slot
// patched once its size is known.
void WriteSized(std::string* /*out*/, WireWriter& w, const std::string& bytes) {
  w.U32(static_cast<uint32_t>(bytes.size()));
  w.Raw(bytes.data(), bytes.size());
}
void WriteSized(std::string* out, WireWriter& w, const PayloadPtr& p) {
  const size_t at = out->size();
  w.U32(0);
  p->SerializeTo(w);
  PatchU32(out, at, static_cast<uint32_t>(out->size() - at - 4));
}

bool RoundInputPresent(const LogRecord& rec, size_t i) {
  return i < rec.round_input_present.size() && rec.round_input_present[i];
}
bool RoundInputPresent(const CommitRecord& rec, size_t i) {
  return rec.round_inputs[i] != nullptr;
}

/// The one record-body writer (layout in log_format.h), for a decoded
/// LogRecord or a live CommitRecord.
template <typename Record>
void WriteLogRecordBody(std::string* out, WireWriter& w, uint64_t commit_seq, const Record& rec) {
  w.U64(commit_seq);
  w.U64(rec.txn_id);
  w.U8(rec.multi_partition ? 1 : 0);
  w.U32(static_cast<uint32_t>(rec.proc));
  WriteSized(out, w, rec.args);
  w.U16(static_cast<uint16_t>(rec.round_inputs.size()));
  for (size_t i = 0; i < rec.round_inputs.size(); ++i) {
    const bool present = RoundInputPresent(rec, i);
    w.U8(present ? 1 : 0);
    if (present) {
      WriteSized(out, w, rec.round_inputs[i]);
    } else {
      w.U32(0);
    }
  }
}

/// Appends one framed record: reserves the 8-byte `len | crc` header at the
/// end of `out`, writes the body straight after it, then patches the length
/// and the crc in place.
template <typename Record>
void AppendFramedRecord(std::string* out, uint64_t commit_seq, const Record& rec) {
  const size_t frame_start = out->size();
  out->append(8, '\0');
  WireWriter w(out);
  WriteLogRecordBody(out, w, commit_seq, rec);
  const size_t body_len = out->size() - frame_start - 8;
  PatchU32(out, frame_start, static_cast<uint32_t>(body_len));
  PatchU32(out, frame_start + 4, Crc32(out->data() + frame_start + 8, body_len));
}

}  // namespace

void AppendLogRecord(uint64_t commit_seq, const CommitRecord& committed, std::string* out) {
  AppendFramedRecord(out, commit_seq, committed);
}

void EncodeLogRecord(const LogRecord& rec, std::string* out) {
  AppendFramedRecord(out, rec.commit_seq, rec);
}

void EncodeLogRecordBody(const LogRecord& rec, std::string* out) {
  WireWriter w(out);
  WriteLogRecordBody(out, w, rec.commit_seq, rec);
}

bool DecodeLogRecordBody(std::string_view body, LogRecord* out) {
  WireReader r(body);
  out->commit_seq = r.U64();
  out->txn_id = r.U64();
  const uint8_t flags = r.U8();
  if ((flags & ~1u) != 0) r.MarkCorrupt();
  out->multi_partition = (flags & 1u) != 0;
  out->proc = static_cast<ProcId>(r.U32());
  const uint32_t args_len = r.U32();
  if (args_len > r.remaining()) return false;
  out->args.resize(args_len);
  r.Raw(out->args.data(), args_len);
  const uint16_t n_inputs = r.U16();
  out->round_inputs.clear();
  out->round_input_present.clear();
  for (uint16_t i = 0; i < n_inputs && r.ok(); ++i) {
    const uint8_t present = r.U8();
    if (present > 1) r.MarkCorrupt();
    const uint32_t len = r.U32();
    if (len > r.remaining()) return false;
    std::string bytes(len, '\0');
    r.Raw(bytes.data(), len);
    if (present == 0 && len != 0) r.MarkCorrupt();
    out->round_inputs.push_back(std::move(bytes));
    out->round_input_present.push_back(present != 0);
  }
  return r.AtEnd();
}

LogSegmentContents ParseLogSegment(std::string_view data) {
  LogSegmentContents out;
  WireReader r(data);
  // Header. Only over-reads flip r.ok() here, so !ok() means the file ended
  // mid-header — the prefix a crash between open(O_CREAT) and the header
  // fsync leaves behind (kTornHeader). Wrong *content* with enough bytes
  // present stays kCorrupt.
  const uint32_t magic = r.U32();
  const uint32_t version = r.U32();
  if (!r.ok()) {
    out.status = LogReadStatus::kTornHeader;
    return out;
  }
  if (magic != kLogMagic || version != kLogVersion) return out;  // kCorrupt
  out.header.partition = static_cast<PartitionId>(r.U32());
  out.header.num_partitions = static_cast<int>(r.U32());
  out.header.first_seq = r.U64();
  const uint32_t n_procs = r.U32();
  if (!r.ok()) {
    out.status = LogReadStatus::kTornHeader;
    return out;
  }
  if (n_procs > 4096) return out;
  for (uint32_t i = 0; i < n_procs; ++i) {
    LogProcEntry e;
    e.id = static_cast<ProcId>(r.U32());
    const uint16_t len = r.U16();
    if (!r.ok() || len > r.remaining()) {
      out.status = LogReadStatus::kTornHeader;
      return out;
    }
    e.name.resize(len);
    r.Raw(e.name.data(), len);
    out.header.procs.push_back(std::move(e));
  }
  size_t consumed = data.size() - r.remaining();

  // Records. A truncated frame or a crc mismatch on the *last* frame is a
  // torn tail; the same thing followed by more data means the middle of the
  // file is damaged — that is unrecoverable corruption.
  while (r.remaining() > 0) {
    if (r.remaining() < 8) {
      out.status = LogReadStatus::kTornTail;
      out.valid_bytes = consumed;
      return out;
    }
    const uint32_t body_len = r.U32();
    const uint32_t crc = r.U32();
    if (body_len > kMaxLogRecordBytes) {
      out.status = LogReadStatus::kCorrupt;
      out.valid_bytes = consumed;
      return out;
    }
    if (body_len > r.remaining()) {
      out.status = LogReadStatus::kTornTail;
      out.valid_bytes = consumed;
      return out;
    }
    const std::string_view body = data.substr(data.size() - r.remaining(), body_len);
    r.Skip(body_len);
    LogRecord rec;
    if (Crc32(body) != crc || !DecodeLogRecordBody(body, &rec)) {
      // Damaged frame: torn only if nothing follows it.
      out.status = r.remaining() == 0 ? LogReadStatus::kTornTail : LogReadStatus::kCorrupt;
      out.valid_bytes = consumed;
      return out;
    }
    out.records.push_back(std::move(rec));
    consumed = data.size() - r.remaining();
  }
  out.status = LogReadStatus::kCleanEof;
  out.valid_bytes = consumed;
  return out;
}

namespace {

/// The checkpoint body (layout in log_format.h), one field list for both
/// directions; the magic and crc framing around it are EncodeCheckpoint's.
template <typename Io, FieldsOf<CheckpointImage> I>
void Fields(Io& io, I& img) {
  uint32_t version = kLogVersion;
  io.Field(version);
  io.Require(version == kLogVersion);
  io.Field(img.partition);
  io.Field(img.num_partitions);
  io.Field(img.covered_seq);
  io.Seq32(img.mp_committed, sizeof(TxnId));
  for (auto& id : img.mp_committed) io.Field(id);
  io.Bytes64(img.engine_state, kMaxCheckpointBytes);
}

}  // namespace

void EncodeCheckpoint(const CheckpointImage& img, std::string* out) {
  std::string body;
  {
    WireWriter w(&body);
    Fields(w, img);
  }
  WireWriter w(out);
  w.U32(kCkptMagic);
  w.U32(Crc32(body));
  w.Raw(body.data(), body.size());
}

bool DecodeCheckpoint(std::string_view data, CheckpointImage* out) {
  WireReader r(data);
  if (r.U32() != kCkptMagic) return false;
  const uint32_t crc = r.U32();
  if (!r.ok()) return false;
  const std::string_view body = data.substr(8);
  if (Crc32(body) != crc) return false;
  WireReader b(body);
  Fields(b, *out);
  return b.AtEnd();
}

std::string LogFileName::Format() const {
  // Appends rather than `"p" + std::to_string(...)`, where GCC 12 reports a
  // false -Wrestrict.
  std::string name = "p";
  name += std::to_string(partition);
  name += '-';
  name += std::to_string(index);
  name += checkpoint ? ".ckpt" : ".log";
  return name;
}

bool LogFileName::Parse(std::string_view name, LogFileName* out) {
  if (name.empty() || name[0] != 'p') return false;
  const char* const end = name.data() + name.size();
  const auto [dash, ec_p] = std::from_chars(name.data() + 1, end, out->partition);
  if (ec_p != std::errc() || dash == end || *dash != '-') return false;
  const auto [dot, ec_i] = std::from_chars(dash + 1, end, out->index);
  const std::string_view ext(dot, static_cast<size_t>(end - dot));
  out->checkpoint = ext == ".ckpt";
  return ec_i == std::errc() && (out->checkpoint || ext == ".log");
}

}  // namespace partdb

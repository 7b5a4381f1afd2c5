// On-disk formats of the durability tier: the per-partition command log
// (H-Store-style — each record is one committed procedure *invocation*, not
// the data it touched) and the per-partition checkpoint file. Both are built
// from the same little-endian WireWriter/WireReader primitives as the network
// frames, and both carry CRC32 checksums so recovery can tell a torn final
// record (tolerated: the crash interrupted the write) from corruption in the
// middle of a file (rejected loudly).
//
// Log segment layout:
//   header:  magic "PDLG" | u32 version | u32 partition | u32 num_partitions
//            | u64 first_seq | proc table (u32 count, then per proc:
//            u32 id | u16 name_len | name bytes)
//   records: u32 body_len | u32 crc32(body) | body
//   body:    u64 commit_seq | u64 txn_id | u8 flags (bit 0 = multi-partition)
//            | u32 proc | u32 args_len | args bytes
//            | u16 num_round_inputs, then per input:
//            u8 present | u32 len | bytes
//
// The proc table maps this segment's numeric proc ids to procedure *names*;
// recovery re-resolves names through the live ProcedureRegistry, so ids may
// differ across restarts as long as the names still exist.
//
// Checkpoint layout:
//   magic "PDCK" | u32 crc32(body) | body
//   body:    u32 version | u32 partition | u32 num_partitions
//            | u64 covered_seq | u32 mp_count | u64 mp txn ids...
//            | u64 engine_len | engine state bytes
#ifndef PARTDB_DURABILITY_LOG_FORMAT_H_
#define PARTDB_DURABILITY_LOG_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "msg/message.h"
#include "msg/payload.h"
#include "msg/wire.h"

namespace partdb {

inline constexpr uint32_t kLogMagic = 0x474C4450;   // "PDLG" little-endian
inline constexpr uint32_t kCkptMagic = 0x4B434450;  // "PDCK"
inline constexpr uint32_t kLogVersion = 1;
/// A record body longer than this is corruption, not data: the decoder
/// refuses it instead of trying to allocate it.
inline constexpr uint32_t kMaxLogRecordBytes = 16u << 20;
inline constexpr uint64_t kMaxCheckpointBytes = 1u << 30;

/// CRC-32 (IEEE 802.3 polynomial), computed slicing-by-8: eight bytes per
/// step through eight tables, same values as the bytewise table method.
uint32_t Crc32(const void* data, size_t n);
inline uint32_t Crc32(std::string_view s) { return Crc32(s.data(), s.size()); }

/// One procedure-name mapping carried in a segment header.
struct LogProcEntry {
  ProcId id = kInvalidProc;
  std::string name;
};

struct LogSegmentHeader {
  PartitionId partition = -1;
  int num_partitions = 0;
  uint64_t first_seq = 0;
  std::vector<LogProcEntry> procs;
};

/// One decoded command-log record. `args` / `round_inputs` hold the raw
/// serialized bytes; decoding into Payloads needs the registry's codecs and
/// happens in recovery (durability/recovery.h).
struct LogRecord {
  uint64_t commit_seq = 0;
  TxnId txn_id = kInvalidTxn;
  bool multi_partition = false;
  ProcId proc = kInvalidProc;
  std::string args;
  /// Entry r = serialized input of round r; empty string when that round had
  /// none (round 0 never has one).
  std::vector<std::string> round_inputs;
  std::vector<bool> round_input_present;
};

/// Appends the segment header to `out`.
void EncodeLogSegmentHeader(const LogSegmentHeader& h, std::string* out);

/// Appends one framed record (length + crc + body) for `committed` at
/// `commit_seq` to `out`: the live log's encoder (PartitionLog::Append). The
/// args and round inputs serialize straight into `out`, with no temporary
/// body string and no copy.
void AppendLogRecord(uint64_t commit_seq, const CommitRecord& committed, std::string* out);

/// The same framed record from raw bytes, through the same body writer:
/// serves tests, the fuzz harness and anything that re-encodes a decoded
/// record.
void EncodeLogRecord(const LogRecord& rec, std::string* out);

/// Serializes just the body of a record (what the crc covers) — split out so
/// the fuzz harness can attack the body decoder directly.
void EncodeLogRecordBody(const LogRecord& rec, std::string* out);

/// Decodes one record body. Returns false on any malformed field.
bool DecodeLogRecordBody(std::string_view body, LogRecord* out);

/// Why a segment read stopped.
enum class LogReadStatus {
  kCleanEof,    // ran exactly to the end of the file
  kTornTail,    // final record truncated or crc-mismatched: a crashed append
  kTornHeader,  // file ends inside the header: a crash between segment
                // creation and the header fsync — no record was ever written
  kCorrupt,     // malformed header or a bad record with more data after it
};

struct LogSegmentContents {
  LogSegmentHeader header;
  std::vector<LogRecord> records;
  LogReadStatus status = LogReadStatus::kCorrupt;
  /// Bytes consumed up to the last intact record (the torn tail starts here).
  size_t valid_bytes = 0;
};

/// Parses an entire segment image (header + records). Stops at the first
/// torn record; anything malformed *before* the end is kCorrupt. A file that
/// runs out of bytes mid-header is kTornHeader — recovery tolerates that on
/// the highest-index segment only (the shape a crashed OpenSegment leaves),
/// and rejects it anywhere earlier.
LogSegmentContents ParseLogSegment(std::string_view data);

struct CheckpointImage {
  PartitionId partition = -1;
  int num_partitions = 0;
  /// Every commit_seq <= covered_seq at this partition is reflected in
  /// `engine_state`; recovery replays only records past it.
  uint64_t covered_seq = 0;
  /// Multi-partition txn ids committed at this partition up to covered_seq —
  /// the recovery-side completeness rule needs them after the log behind the
  /// checkpoint is truncated. Not lifetime-cumulative: ids every
  /// participant's checkpoint already covers are pruned
  /// (PartitionLog::DropCoveredMpHistory), so the list holds only the last
  /// few checkpoint intervals' worth.
  std::vector<TxnId> mp_committed;
  std::string engine_state;
};

void EncodeCheckpoint(const CheckpointImage& img, std::string* out);

/// Strict whole-file decode; any corruption (bad magic, bad crc, trailing
/// bytes) fails — a checkpoint is written+fsynced atomically via rename, so
/// unlike the log there is no tolerated torn state.
bool DecodeCheckpoint(std::string_view data, CheckpointImage* out);

/// A partition's file in the log directory: segment `index` is
/// `p<partition>-<index>.log`, and the checkpoint covering commit sequence
/// `index` is `p<partition>-<index>.ckpt` (so image names sort by coverage).
struct LogFileName {
  PartitionId partition = -1;
  uint64_t index = 0;
  bool checkpoint = false;

  std::string Format() const;
  /// Strict inverse of Format: false for any other name (`.ckpt.tmp`
  /// included).
  static bool Parse(std::string_view name, LogFileName* out);
};

}  // namespace partdb

#endif  // PARTDB_DURABILITY_LOG_FORMAT_H_

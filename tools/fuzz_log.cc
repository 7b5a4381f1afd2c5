// Fuzz harness for the durability tier's on-disk formats: the command-log
// segment parser (header + crc-framed records), the record-body decoder, and
// the checkpoint decoder — the exact code Database::Open runs on whatever
// bytes survived the crash. The contract under attack is asymmetric: a torn
// final record must be *tolerated* (LogReadStatus::kTornTail) while anything
// malformed earlier must be *rejected* (kCorrupt / decode failure) — and
// nothing in either case may crash, trip a sanitizer, or fail a PARTDB_CHECK.
// What the decoders accept must also re-encode byte for byte, which pins the
// encoders (and the crc) to the format the decoders read; an accepted
// checkpoint image, and the KV args and round inputs inside an accepted
// record, must re-encode to a fixpoint (tools/fuzz_fixpoint.h).
// Anything that does is a recovery-time kill on real data and belongs in
// tests/durability_test.cc as a regression.
//
// Two entry points from the same logic:
//   - libFuzzer (clang, -DPARTDB_FUZZ=ON): `fuzz_log corpus/ -max_total_time=30`
//     is the CI smoke; longer local runs welcome.
//   - standalone main (any compiler): `fuzz_log write_seeds <dir>` emits the
//     seed corpus; `fuzz_log <file>...` replays corpus files or crashers
//     under the regular gcc/clang sanitizers.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "db/procedure_registry.h"
#include "durability/log_format.h"
#include "kv/kv_engine.h"
#include "kv/kv_procedures.h"
#include "tools/fuzz_fixpoint.h"

namespace partdb {
namespace {

bool DecodeKvArgs(std::string_view bytes, PayloadPtr* out) {
  static const ProcedureDescriptor kKv = KvReadUpdateProcedure(KvWorkloadOptions{});
  WireReader r(bytes);
  *out = DecodeArgs(kKv, r);
  return *out != nullptr && r.AtEnd();
}

bool DecodeKvRoundInputBytes(std::string_view bytes, PayloadPtr* out) {
  WireReader r(bytes);
  *out = DecodeKvRoundInput(r);
  return *out != nullptr && r.AtEnd();
}

std::string EncodePayload(const PayloadPtr& p) {
  std::string out;
  WireWriter w(&out);
  p->SerializeTo(w);
  return out;
}

void FuzzOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);

  // 1. Whole-segment parse — what recovery runs on every p<p>-<i>.log image.
  //    Every status (clean, torn tail, torn header, corrupt) is a legal
  //    outcome; only crashes count. Whatever the parser accepted (the header
  //    and every intact frame, up to valid_bytes) must re-encode to exactly
  //    the input bytes, crc included: the encoders write the one format the
  //    decoders read.
  const LogSegmentContents seg = ParseLogSegment(input);
  if (seg.valid_bytes > 0) {
    std::string again;
    EncodeLogSegmentHeader(seg.header, &again);
    for (const LogRecord& rec : seg.records) EncodeLogRecord(rec, &again);
    PARTDB_CHECK(again == input.substr(0, seg.valid_bytes));
  }

  // 2. Strict checkpoint decode — what recovery runs on every .ckpt image.
  //    An accepted image re-encodes to a fixpoint.
  DecodeAndCheckFixpoint<CheckpointImage>(input, DecodeCheckpoint, [](const CheckpointImage& img) {
    std::string out;
    EncodeCheckpoint(img, &out);
    return out;
  });

  // 3. Direct record-body dispatch (skipping one selector byte), so the body
  //    decoder also sees inputs the length/crc framing would have rejected
  //    before it ever ran. An accepted body re-frames to a frame whose body
  //    is exactly those bytes.
  if (!input.empty()) {
    const std::string_view body = input.substr(1);
    LogRecord rec;
    if (DecodeLogRecordBody(body, &rec)) {
      std::string frame;
      EncodeLogRecord(rec, &frame);
      PARTDB_CHECK(std::string_view(frame).substr(8) == body);
      // Recovery decodes the record's args and round inputs with the
      // procedure's codecs: the KV ones re-encode to a fixpoint too.
      DecodeAndCheckFixpoint<PayloadPtr>(rec.args, DecodeKvArgs, EncodePayload);
      for (const std::string& in : rec.round_inputs) {
        DecodeAndCheckFixpoint<PayloadPtr>(in, DecodeKvRoundInputBytes, EncodePayload);
      }
    }
  }
}

#if !defined(PARTDB_FUZZ_LIBFUZZER)

/// Seed corpus: well-formed images of every decodable shape — a clean
/// segment, a torn one, a checkpoint, and a bare record body — so the fuzzer
/// starts from valid layouts instead of rediscovering the magic and crc.
std::vector<std::string> SeedInputs() {
  std::vector<std::string> seeds;

  LogSegmentHeader h;
  h.partition = 0;
  h.num_partitions = 2;
  h.first_seq = 1;
  h.procs.push_back(LogProcEntry{0, "kv_read_update"});
  h.procs.push_back(LogProcEntry{1, "new_order"});

  KvArgs args;
  args.keys = {{KvKey("k0000001"), KvKey("k0000002")}, {KvKey("k0000003")}};
  args.rounds = 2;

  LogRecord sp;
  sp.commit_seq = 1;
  sp.txn_id = 1001;
  sp.proc = 0;
  {
    WireWriter w(&sp.args);
    args.SerializeTo(w);
  }

  LogRecord mp = sp;
  mp.commit_seq = 2;
  mp.txn_id = 1002;
  mp.multi_partition = true;
  mp.round_inputs = {"", "round-1-input"};
  mp.round_input_present = {false, true};

  std::string segment;
  EncodeLogSegmentHeader(h, &segment);
  EncodeLogRecord(sp, &segment);
  EncodeLogRecord(mp, &segment);
  seeds.push_back(segment);

  std::string third;
  EncodeLogRecord(sp, &third);
  seeds.push_back(segment + third.substr(0, 7));  // crash mid-append: torn tail

  std::string header_only;
  EncodeLogSegmentHeader(h, &header_only);
  seeds.push_back(header_only.substr(0, 10));  // crash mid-OpenSegment: torn header

  CheckpointImage img;
  img.partition = 0;
  img.num_partitions = 2;
  img.covered_seq = 2;
  img.mp_committed = {1002};
  img.engine_state = std::string(64, '\x2a');
  std::string ckpt;
  EncodeCheckpoint(img, &ckpt);
  seeds.push_back(ckpt);

  std::string body(1, '\0');  // selector byte, then the bare body
  EncodeLogRecordBody(mp, &body);
  seeds.push_back(body);

  return seeds;
}

int WriteSeeds(const char* dir) {
  const std::vector<std::string> seeds = SeedInputs();
  for (size_t i = 0; i < seeds.size(); ++i) {
    const std::string path = std::string(dir) + "/seed_" + std::to_string(i);
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    out.write(seeds[i].data(), static_cast<std::streamsize>(seeds[i].size()));
  }
  std::printf("wrote %zu seeds to %s\n", seeds.size(), dir);
  return 0;
}

#endif  // !PARTDB_FUZZ_LIBFUZZER

}  // namespace
}  // namespace partdb

#if defined(PARTDB_FUZZ_LIBFUZZER)

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  partdb::FuzzOneInput(data, size);
  return 0;
}

#else

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "write_seeds") == 0) {
    return partdb::WriteSeeds(argv[2]);
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s write_seeds <dir> | %s <corpus-file>...\n"
                 "(build with -DPARTDB_FUZZ=ON under clang for the libFuzzer "
                 "driver)\n",
                 argv[0], argv[0]);
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", argv[i]);
      return 1;
    }
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    partdb::FuzzOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size());
    std::printf("%s: ok (%zu bytes)\n", argv[i], bytes.size());
  }
  return 0;
}

#endif  // PARTDB_FUZZ_LIBFUZZER

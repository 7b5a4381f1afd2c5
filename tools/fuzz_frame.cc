// Fuzz harness for the wire tier: the incremental frame decoder plus every
// body decoder reachable from remote input — Hello, Request (with the kv
// args codec, the same one DbServer runs on untrusted bytes), Response (kv
// result codec), CloseSession, and Metrics. Anything that crashes, trips a
// sanitizer, or fails a PARTDB_CHECK here is a remotely triggerable server
// or client kill and belongs in tests/frame_torture_test.cc as a regression.
//
// Two entry points from the same logic:
//   - libFuzzer (clang, -DPARTDB_FUZZ=ON): `fuzz_frame corpus/ -max_total_time=30`
//     is the CI smoke; longer local runs welcome.
//   - standalone main (any compiler): `fuzz_frame write_seeds <dir>` emits
//     the seed corpus; `fuzz_frame <file>...` replays corpus files or
//     crashers under the regular gcc/clang sanitizers.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "db/procedure_registry.h"
#include "kv/kv_engine.h"
#include "kv/kv_procedures.h"
#include "msg/wire.h"
#include "net/frame.h"
#include "runtime/metrics.h"

namespace partdb {
namespace {

/// Runs the type-appropriate body decoder, mirroring what DbServer::OnFrame
/// and RemoteDatabase::OnFrame do with a decoded frame. Decode failures are
/// fine (that is the decoders' job); only crashes count.
void ConsumeBody(FrameType type, std::string_view body) {
  switch (type) {
    case FrameType::kHello: {
      HelloBody h;
      DecodeHello(body, &h);
      break;
    }
    case FrameType::kRequest: {
      WireReader r(body);
      RequestHeader h;
      if (!DecodeRequestHeader(r, &h)) break;
      // The server decodes args through DecodeArgs with the procedure's
      // registered codec; the kv procedure is the one every bench deployment
      // serves.
      static const ProcedureDescriptor kKv = KvReadUpdateProcedure(KvWorkloadOptions{});
      PayloadPtr args = DecodeArgs(kKv, r);
      if (args != nullptr) r.AtEnd();
      break;
    }
    case FrameType::kResponse: {
      WireReader r(body);
      ResponseHeader h;
      if (!DecodeResponseHeader(r, &h)) break;
      if (h.has_result) {
        PayloadPtr result = DecodeKvResult(r);
        if (result != nullptr) r.AtEnd();
      }
      break;
    }
    case FrameType::kCloseSession: {
      WireReader r(body);
      r.U32();
      r.AtEnd();
      break;
    }
    case FrameType::kMetrics: {
      Metrics m;
      DecodeMetrics(body, &m);
      break;
    }
    default:
      break;  // control frames carry no body
  }
}

void FuzzOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);

  // 1. Stream decode: consume frames off the front exactly like the event
  //    loop's receive path, body decoders and all.
  std::string_view rest = input;
  while (true) {
    FrameView fv;
    size_t consumed = 0;
    if (TryDecodeFrame(rest, &fv, &consumed) != FrameDecode::kFrame) break;
    ConsumeBody(fv.type, fv.body);
    rest.remove_prefix(consumed);
  }

  // 2. Direct body dispatch — the first byte selects the decoder — so the
  //    body codecs also see inputs the frame-header validation would have
  //    rejected before they ever ran.
  if (!input.empty()) {
    ConsumeBody(static_cast<FrameType>(static_cast<uint8_t>(input[0]) % 8 + 1),
                input.substr(1));
  }
}

#if !defined(PARTDB_FUZZ_LIBFUZZER)

/// Seed corpus: well-formed streams covering every frame type, so the fuzzer
/// starts from valid protocol shapes instead of rediscovering the header.
std::vector<std::string> SeedInputs() {
  std::vector<std::string> seeds;

  HelloBody hello;
  hello.max_inflight = 7;
  hello.mode = 0;
  hello.max_sessions = 16;
  hello.proc_names = {"kv_read_update", "new_order", "payment"};
  std::string hello_stream;
  AppendFrame(&hello_stream, FrameType::kHello, EncodeHello(hello));
  AppendFrame(&hello_stream, FrameType::kBeginMeasure, "");
  AppendFrame(&hello_stream, FrameType::kMeasureBegun, "");
  seeds.push_back(hello_stream);

  KvArgs args;
  args.keys = {{KvKey("k0000001"), KvKey("k0000002")}, {KvKey("k0000003")}};
  args.rounds = 2;
  RequestHeader req;
  req.session_id = 3;
  req.seq = 41;
  req.proc = 0;
  std::string request_stream;
  AppendRequest(&request_stream, req, args);
  seeds.push_back(request_stream);

  KvResult result;
  result.values = {1, 2, 3, 0xFFFFFFFFFFFFFFFFull};
  ResponseHeader resp;
  resp.session_id = 3;
  resp.seq = 41;
  resp.status = TxnStatus::kCommitted;
  resp.attempts = 1;
  resp.has_result = true;
  std::string response_stream;
  AppendResponse(&response_stream, resp, &result);
  AppendCloseSession(&response_stream, 3);
  seeds.push_back(response_stream);

  Metrics m;
  m.committed = 100;
  m.sp_committed = 90;
  m.mp_committed = 10;
  for (int i = 0; i < 64; ++i) m.sp_latency.Add(1000 * (i + 1));
  m.mp_latency.Add(5'000'000);
  m.window_ns = 1'000'000'000;
  m.num_partitions = 2;
  m.procs.resize(1);
  m.procs[0].committed = 100;
  for (int i = 0; i < 8; ++i) m.procs[0].latency.Add(1000 * (i + 1));
  std::string metrics_stream;
  AppendFrame(&metrics_stream, FrameType::kMetrics, EncodeMetrics(m));
  seeds.push_back(metrics_stream);

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

#include "durability/recovery.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "durability/log_format.h"
#include "engine/replay.h"

namespace partdb {

namespace {

namespace fs = std::filesystem;

/// One log record staged for replay, with its proc id remapped into the live
/// registry. Args/round inputs decode lazily on the replay workers; only
/// multi-partition records decode up front (the completeness rule needs
/// their routing before replay starts).
struct StagedRecord {
  LogRecord rec;
  ProcId live_proc = kInvalidProc;
  PayloadPtr args;  // decoded early for MP records
  bool skip = false;
};

struct StagedPartition {
  bool has_ckpt = false;
  CheckpointImage ckpt;
  std::vector<StagedRecord> records;  // seq > ckpt.covered_seq, ascending
  std::unordered_set<TxnId> mp_present;
  LogSeed seed;  // mp_history: mp_present minus the skipped ids, at the end
  uint64_t segments_read = 0;
  uint64_t torn_tails = 0;
  bool any_files = false;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

std::string PartitionError(PartitionId p, const std::string& what) {
  return "partition " + std::to_string(p) + ": " + what;
}

/// Decodes one payload strictly: the decoder must succeed and consume every
/// byte (trailing garbage in a crc-valid record still means corruption).
PayloadPtr DecodeStrict(const PayloadDecoder& decode, const std::string& bytes) {
  WireReader r(bytes);
  PayloadPtr p = decode(r);
  if (p == nullptr || !r.AtEnd()) return nullptr;
  return p;
}

/// Decodes `s`'s logged args strictly into `s->args` with `d`'s args codec.
/// Returns an error string, empty on success.
std::string DecodeRecordArgs(const ProcedureDescriptor& d, StagedRecord* s) {
  if (d.make_args == nullptr) return "procedure '" + d.name + "' has no args codec";
  WireReader r(s->rec.args);
  PayloadPtr args = DecodeArgs(d, r);
  if (args == nullptr || !r.AtEnd()) {
    return "undecodable args in record seq " + std::to_string(s->rec.commit_seq);
  }
  s->args = std::move(args);
  return "";
}

/// Loads one partition's checkpoint + segments into `out`. Returns an error
/// string, empty on success.
std::string StagePartition(const RecoveryOptions& options, PartitionId p,
                           StagedPartition* out) {
  // Scan the directory once for this partition's files.
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::vector<std::pair<uint64_t, std::string>> ckpts;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options.dir, ec)) {
    LogFileName f;
    if (!LogFileName::Parse(entry.path().filename().string(), &f) || f.partition != p) continue;
    (f.checkpoint ? ckpts : segments).emplace_back(f.index, entry.path().string());
  }
  if (ec) return "cannot read log dir " + options.dir + ": " + ec.message();
  out->any_files = !segments.empty() || !ckpts.empty();
  if (!out->any_files) return "";
  std::sort(segments.begin(), segments.end());
  std::sort(ckpts.begin(), ckpts.end());

  // Latest checkpoint. A corrupt one is rejected loudly — the log behind it
  // was truncated when it was written, so silently falling back to an older
  // (or no) checkpoint could only produce a state hole.
  if (!ckpts.empty()) {
    std::string bytes;
    if (!ReadFile(ckpts.back().second, &bytes)) {
      return PartitionError(p, "cannot read " + ckpts.back().second);
    }
    if (!DecodeCheckpoint(bytes, &out->ckpt)) {
      return PartitionError(p, "corrupt checkpoint " + ckpts.back().second);
    }
    if (out->ckpt.partition != p || out->ckpt.num_partitions != options.num_partitions) {
      return PartitionError(p, "checkpoint topology mismatch (have " +
                                   std::to_string(options.num_partitions) +
                                   " partitions, file says " +
                                   std::to_string(out->ckpt.num_partitions) + ")");
    }
    out->has_ckpt = true;
    for (TxnId id : out->ckpt.mp_committed) out->mp_present.insert(id);
  }

  // Segments, ascending. Torn tails are tolerated anywhere (a tear in a
  // non-final segment is just the tail of an earlier incarnation); real gaps
  // are caught by the sequence-contiguity check below.
  const uint64_t covered = out->has_ckpt ? out->ckpt.covered_seq : 0;
  uint64_t prev_seq = 0;
  bool have_prev = false;
  bool reuse_tail_index = false;
  for (auto& [index, path] : segments) {
    std::string bytes;
    if (!ReadFile(path, &bytes)) return PartitionError(p, "cannot read " + path);
    LogSegmentContents seg = ParseLogSegment(bytes);
    if (seg.status == LogReadStatus::kCorrupt) {
      return PartitionError(p, "corrupt log segment " + path);
    }
    if (seg.status == LogReadStatus::kTornHeader) {
      // A crash between segment creation and the header fsync leaves a short
      // prefix of a header holding no records. On the highest-index segment
      // that is legitimate crash timing, like a torn tail: ignore the file
      // and have the next incarnation reopen (O_TRUNC) the same index. With
      // later segments present it can only be damage — fail loudly.
      if (index != segments.back().first) {
        return PartitionError(p, "truncated segment header in " + path +
                                     " with later segments present");
      }
      ++out->torn_tails;
      reuse_tail_index = true;
      break;
    }
    ++out->segments_read;
    if (seg.status == LogReadStatus::kTornTail) ++out->torn_tails;
    if (seg.header.partition != p ||
        seg.header.num_partitions != options.num_partitions) {
      return PartitionError(p, "segment topology mismatch in " + path);
    }
    // Per-segment proc id -> live registry id, resolved by name.
    std::unordered_map<ProcId, ProcId> remap;
    for (const LogProcEntry& e : seg.header.procs) {
      const ProcId live = options.registry->Find(e.name);
      if (live == kInvalidProc) {
        return PartitionError(p, "log references unregistered procedure '" + e.name + "'");
      }
      remap[e.id] = live;
    }
    for (LogRecord& rec : seg.records) {
      if (have_prev && rec.commit_seq != prev_seq + 1) {
        return PartitionError(p, "commit sequence gap in " + path + " (" +
                                     std::to_string(prev_seq) + " -> " +
                                     std::to_string(rec.commit_seq) + ")");
      }
      prev_seq = rec.commit_seq;
      have_prev = true;
      if (rec.multi_partition) out->mp_present.insert(rec.txn_id);
      if (rec.commit_seq <= covered) continue;  // already in the checkpoint
      auto it = remap.find(rec.proc);
      if (it == remap.end()) {
        return PartitionError(p, "record names proc id absent from segment header");
      }
      StagedRecord staged;
      staged.rec = std::move(rec);
      staged.live_proc = it->second;
      out->records.push_back(std::move(staged));
    }
  }
  // The replayable prefix must start directly after the checkpoint.
  if (!out->records.empty() && out->records.front().rec.commit_seq != covered + 1) {
    return PartitionError(p, "log starts at seq " +
                                 std::to_string(out->records.front().rec.commit_seq) +
                                 " but checkpoint covers " + std::to_string(covered));
  }
  if (out->records.empty() && !out->has_ckpt && have_prev) {
    // All records were... impossible without a checkpoint; defensive.
    return PartitionError(p, "records vanished while staging");
  }
  out->seed.next_seq = (have_prev ? prev_seq : covered) + 1;
  out->seed.next_segment =
      segments.empty() ? 0 : segments.back().first + (reuse_tail_index ? 0 : 1);
  out->records.shrink_to_fit();
  return "";
}

/// Runs `fn(p)` for every partition on `workers` threads (the caller is one
/// of them), one partition per worker at a time; the workers share nothing
/// but the partition index.
template <typename Fn>
void ForEachPartition(int num_partitions, int workers, Fn&& fn) {
  std::atomic<int> next_partition{0};
  auto work = [&] {
    while (true) {
      const int p = next_partition.fetch_add(1, std::memory_order_relaxed);
      if (p >= num_partitions) return;
      fn(p);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
}

}  // namespace

RecoveryReport RecoverDatabase(const RecoveryOptions& options,
                               const std::function<Engine&(PartitionId)>& engine_of) {
  RecoveryReport report;
  report.seeds.assign(static_cast<size_t>(options.num_partitions), LogSeed{});
  PARTDB_CHECK(options.registry != nullptr);
  PARTDB_CHECK(options.num_partitions > 0);
  const auto t0 = std::chrono::steady_clock::now();

  std::error_code ec;
  if (!std::filesystem::exists(options.dir, ec)) {
    report.ok = true;  // fresh database: nothing to recover
    return report;
  }

  // Stage every partition's files in parallel (reads + frame checks, no
  // procedure execution; about as costly as the replay itself).
  const int workers =
      std::max(1, std::min(options.workers, options.num_partitions));
  std::vector<StagedPartition> staged(static_cast<size_t>(options.num_partitions));
  std::vector<std::string> errors(static_cast<size_t>(options.num_partitions));
  ForEachPartition(options.num_partitions, workers, [&](PartitionId p) {
    errors[static_cast<size_t>(p)] = StagePartition(options, p, &staged[static_cast<size_t>(p)]);
  });
  for (PartitionId p = 0; p < options.num_partitions; ++p) {
    if (!errors[static_cast<size_t>(p)].empty()) {
      report.error = errors[static_cast<size_t>(p)];
      return report;
    }
    report.performed = report.performed || staged[static_cast<size_t>(p)].any_files;
  }
  if (!report.performed) {
    report.ok = true;
    return report;
  }

  // Multi-partition completeness: decode MP args (routing needs them), then
  // keep T only when every participant has T durably.
  for (PartitionId p = 0; p < options.num_partitions; ++p) {
    for (StagedRecord& s : staged[static_cast<size_t>(p)].records) {
      if (!s.rec.multi_partition) continue;
      const ProcedureDescriptor& d = options.registry->Get(s.live_proc);
      const std::string err = DecodeRecordArgs(d, &s);
      if (!err.empty()) {
        report.error = PartitionError(p, err);
        return report;
      }
      const TxnRouting route = d.route(*s.args);
      for (PartitionId q : route.participants) {
        if (q < 0 || q >= options.num_partitions) {
          report.error = PartitionError(p, "record routes to invalid partition");
          return report;
        }
        if (staged[static_cast<size_t>(q)].mp_present.count(s.rec.txn_id) == 0) {
          s.skip = true;  // never fully durable => never acknowledged
        }
      }
    }
  }

  // Parallel replay: each partition's engine is touched by exactly one
  // thread.
  std::vector<uint64_t> replayed(static_cast<size_t>(options.num_partitions), 0);
  std::vector<uint64_t> skipped(static_cast<size_t>(options.num_partitions), 0);
  std::vector<uint64_t> aborted(static_cast<size_t>(options.num_partitions), 0);
  auto replay_partition = [&](PartitionId p) {
    StagedPartition& sp = staged[static_cast<size_t>(p)];
    Engine& engine = engine_of(p);
    if (sp.has_ckpt) {
      if (!engine.SupportsCheckpoint()) {
        errors[static_cast<size_t>(p)] =
            PartitionError(p, "engine does not support checkpoints");
        return;
      }
      WireReader r(sp.ckpt.engine_state);
      if (!engine.RestoreState(r) || !r.AtEnd()) {
        errors[static_cast<size_t>(p)] = PartitionError(p, "corrupt engine checkpoint state");
        return;
      }
    }
    for (StagedRecord& s : sp.records) {
      if (s.skip) {
        ++skipped[static_cast<size_t>(p)];
        continue;
      }
      const ProcedureDescriptor& d = options.registry->Get(s.live_proc);
      if (s.args == nullptr) {
        const std::string err = DecodeRecordArgs(d, &s);
        if (!err.empty()) {
          errors[static_cast<size_t>(p)] = PartitionError(p, err);
          return;
        }
      }
      CommitRecord committed{s.rec.txn_id, s.rec.multi_partition, s.live_proc, s.args, {}};
      for (size_t i = 0; i < s.rec.round_inputs.size(); ++i) {
        if (!s.rec.round_input_present[i]) {
          committed.round_inputs.push_back(nullptr);
          continue;
        }
        if (d.decode_round_input == nullptr) {
          errors[static_cast<size_t>(p)] = PartitionError(
              p, "procedure '" + d.name + "' logged a round input but has no codec for it");
          return;
        }
        PayloadPtr in = DecodeStrict(d.decode_round_input, s.rec.round_inputs[i]);
        if (in == nullptr) {
          errors[static_cast<size_t>(p)] = PartitionError(
              p, "undecodable round input in record seq " + std::to_string(s.rec.commit_seq));
          return;
        }
        committed.round_inputs.push_back(std::move(in));
      }
      ReplayRecord(engine, committed, [&](const WorkMeter&, const ExecResult& res) {
        if (res.aborted) ++aborted[static_cast<size_t>(p)];
      });
      ++replayed[static_cast<size_t>(p)];
    }
  };
  ForEachPartition(options.num_partitions, workers, replay_partition);

  std::unordered_set<TxnId> recovered;
  for (PartitionId p = 0; p < options.num_partitions; ++p) {
    const auto idx = static_cast<size_t>(p);
    if (!errors[idx].empty()) {
      report.error = errors[idx];
      return report;
    }
    report.replayed += replayed[idx];
    report.skipped_incomplete += skipped[idx];
    report.replay_aborts += aborted[idx];
    StagedPartition& sp = staged[idx];
    report.segments_read += sp.segments_read;
    report.torn_tails += sp.torn_tails;
    if (sp.has_ckpt) {
      ++report.checkpoints_loaded;
      for (TxnId id : sp.ckpt.mp_committed) recovered.insert(id);
    }
    for (const StagedRecord& s : sp.records) {
      if (s.skip) {
        // Never acknowledged: the next checkpoint must not list it.
        sp.mp_present.erase(s.rec.txn_id);
      } else {
        recovered.insert(s.rec.txn_id);
      }
    }
    sp.seed.mp_history.assign(sp.mp_present.begin(), sp.mp_present.end());
    report.seeds[idx] = std::move(sp.seed);
  }
  report.recovered_txns.assign(recovered.begin(), recovered.end());
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  report.ok = true;
  return report;
}

}  // namespace partdb

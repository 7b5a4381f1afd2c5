#include "kv/kv_engine.h"

#include "common/logging.h"

namespace partdb {

ExecResult KvEngine::Execute(const Payload& payload, int round, const Payload* round_input,
                             UndoBuffer* undo, WorkMeter* meter) {
  const auto& args = PayloadCast<KvArgs>(payload);
  ExecResult res;

  // Injected user aborts fire at the beginning of execution (paper §5.3).
  // abort_txn marks single-partition transactions; abort_at names the one
  // participant of a multi-partition transaction that aborts locally.
  if (round == 0 && (args.abort_txn || args.abort_at == pid_)) {
    if (meter != nullptr) meter->user_code += 1;
    res.aborted = true;
    return res;
  }

  PARTDB_CHECK(static_cast<size_t>(pid_) < args.keys.size());
  const KvKeyList& keys = args.keys[pid_];
  PARTDB_CHECK(!keys.empty());

  if (args.rounds == 1) {
    // Read + increment in one fragment (read-only transactions skip the
    // increment and return the values as-is).
    auto result = std::make_shared<KvResult>();
    result->values.reserve(keys.size());
    for (const KvKey& k : keys) {
      KvValue v;
      const bool found = store_.Get(k, &v, meter);
      PARTDB_CHECK(found);
      const uint64_t old = DecodeValue(v);
      result->values.push_back(old);
      if (!args.read_only) store_.Put(k, EncodeValue(old + 1), undo, meter);
      if (meter != nullptr) meter->user_code++;
    }
    res.result = std::move(result);
    return res;
  }

  PARTDB_CHECK(args.rounds == 2);
  if (round == 0) {
    // Read round: return values to the coordinator.
    auto result = std::make_shared<KvResult>();
    result->values.reserve(keys.size());
    for (const KvKey& k : keys) {
      KvValue v;
      const bool found = store_.Get(k, &v, meter);
      PARTDB_CHECK(found);
      result->values.push_back(DecodeValue(v));
      if (meter != nullptr) meter->user_code++;
    }
    res.result = std::move(result);
    return res;
  }

  // Write round: the coordinator echoes the values read in round 0; write
  // value+1 (same net effect as the one-round transaction).
  PARTDB_CHECK(round == 1);
  PARTDB_CHECK(round_input != nullptr);
  const auto& input = PayloadCast<KvRoundInput>(*round_input);
  PARTDB_CHECK(static_cast<size_t>(pid_) < input.values.size());
  const std::vector<uint64_t>& vals = input.values[pid_];
  PARTDB_CHECK(vals.size() == keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!args.read_only) store_.Put(keys[i], EncodeValue(vals[i] + 1), undo, meter);
    if (meter != nullptr) meter->user_code++;
  }
  return res;
}

// --- wire codecs -------------------------------------------------------------
//
// Layouts are documented in README "Wire protocol". The fixed header widths
// are chosen so that at the paper's 2-partition figure configurations the
// encoded sizes equal the byte counts the sim cost model has always charged
// (KvArgs: 32 + 9/key, KvResult: 8 + 8/value, KvRoundInput: 16 + 8/value) —
// the sim figure goldens pin this.

void KvArgs::SerializeTo(WireWriter& w) const {
  uint64_t total = 0;
  for (const auto& ks : keys) total += ks.size();
  w.I32(rounds);
  w.U32((abort_txn ? 1u : 0u) | (read_only ? 2u : 0u));
  w.I32(abort_at);
  w.U32(static_cast<uint32_t>(keys.size()));
  w.U64(total);
  for (const auto& ks : keys) w.U32(static_cast<uint32_t>(ks.size()));
  for (const auto& ks : keys) {
    for (const KvKey& k : ks) w.Str(k);
  }
}

// Key lists are indexed by PartitionId, so any real deployment has a small
// number of them; bounding the count up front stops a malformed frame from
// forcing large vector-of-vectors allocations before validation finishes
// (a 64MB frame could otherwise claim ~16M empty lists).
constexpr uint32_t kMaxWireLists = 1024;

bool DecodeKvArgsInto(WireReader& r, KvArgs* into) {
  into->rounds = r.I32();
  const uint32_t flags = r.U32();
  into->abort_txn = (flags & 1) != 0;
  into->read_only = (flags & 2) != 0;
  into->abort_at = r.I32();
  const uint32_t num_lists = r.U32();
  const uint64_t total = r.U64();
  // Each key costs 9 bytes on the wire: reject impossible totals before
  // sizing anything from attacker-controlled lengths.
  if (num_lists > kMaxWireLists || total > r.remaining() / 9) {
    r.MarkCorrupt();
    return false;
  }
  // Two passes instead of a scratch counts vector: size each list to its
  // wire count, then fill every slot.
  into->keys.resize(num_lists);
  uint64_t sum = 0;
  for (uint32_t i = 0; i < num_lists; ++i) {
    const uint32_t c = r.U32();
    sum += c;
    // Bound each list by the validated total before sizing anything from it:
    // the running check keeps every resize under the same cap.
    if (!r.ok() || sum > total) {
      r.MarkCorrupt();
      return false;
    }
    into->keys[i].resize(c);
  }
  if (sum != total) {
    r.MarkCorrupt();
    return false;
  }
  for (auto& ks : into->keys) {
    for (KvKey& k : ks) k = r.Str<8>();
  }
  return r.ok();
}

void KvResult::SerializeTo(WireWriter& w) const {
  w.U64(values.size());
  for (uint64_t v : values) w.U64(v);
}

PayloadPtr DecodeKvResult(WireReader& r) {
  auto result = std::make_shared<KvResult>();
  const uint64_t count = r.U64();
  if (count > r.remaining() / 8) {
    r.MarkCorrupt();
    return nullptr;
  }
  result->values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) result->values.push_back(r.U64());
  return r.ok() ? result : nullptr;
}

void KvRoundInput::SerializeTo(WireWriter& w) const {
  uint64_t total = 0;
  for (const auto& vs : values) total += vs.size();
  w.U32(static_cast<uint32_t>(values.size()));
  w.U32(static_cast<uint32_t>(total));
  for (const auto& vs : values) w.U32(static_cast<uint32_t>(vs.size()));
  for (const auto& vs : values) {
    for (uint64_t v : vs) w.U64(v);
  }
}

PayloadPtr DecodeKvRoundInput(WireReader& r) {
  auto input = std::make_shared<KvRoundInput>();
  const uint32_t num_lists = r.U32();
  const uint32_t total = r.U32();
  if (num_lists > kMaxWireLists || total > r.remaining() / 8) {
    r.MarkCorrupt();
    return nullptr;
  }
  std::vector<uint32_t> counts(num_lists);
  uint64_t sum = 0;
  for (uint32_t i = 0; i < num_lists; ++i) {
    counts[i] = r.U32();
    sum += counts[i];
  }
  if (!r.ok() || sum != total) {
    r.MarkCorrupt();
    return nullptr;
  }
  input->values.resize(num_lists);
  for (uint32_t i = 0; i < num_lists; ++i) {
    input->values[i].reserve(counts[i]);
    for (uint32_t v = 0; v < counts[i]; ++v) input->values[i].push_back(r.U64());
  }
  return r.ok() ? input : nullptr;
}

void KvEngine::LockSet(const Payload& payload, int round,
                       std::vector<LockRequest>* out) const {
  const auto& args = PayloadCast<KvArgs>(payload);
  PARTDB_CHECK(static_cast<size_t>(pid_) < args.keys.size());
  if (args.rounds == 2 && round == 1) return;  // round 0 acquired X already
  for (const KvKey& k : args.keys[pid_]) {
    // Read-then-write access: exclusive from the start. Read-only
    // transactions only ever read, so they declare shared access.
    out->push_back(LockRequest{LockId(k), !args.read_only});
  }
}

void KvEngine::SerializeState(WireWriter& w) const {
  w.U64(store_.size());
  store_.ForEach([&w](const KvKey& k, const KvValue& v) {
    w.Str(k);
    w.Str(v);
  });
}

bool KvEngine::RestoreState(WireReader& r) {
  const uint64_t n = r.U64();
  // Each entry is at least 2 bytes on the wire (two length prefixes).
  if (!r.ok() || n > r.remaining() / 2) {
    r.MarkCorrupt();
    return false;
  }
  store_.Clear();
  for (uint64_t i = 0; i < n; ++i) {
    const KvKey k = r.Str<8>();
    const KvValue v = r.Str<8>();
    if (!r.ok()) return false;
    store_.Put(k, v);
  }
  return r.ok();
}

}  // namespace partdb

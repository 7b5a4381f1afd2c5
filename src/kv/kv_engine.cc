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

// --- wire layouts ------------------------------------------------------------
//
// Layouts are documented in README "Wire protocol"; one field list per
// layout, run by SerializeTo and the decoder alike. The fixed header widths
// are chosen so that at the paper's 2-partition figure configurations the
// encoded sizes equal the byte counts the sim cost model has always charged
// (KvArgs: 32 + 9/key, KvResult: 8 + 8/value, KvRoundInput: 16 + 8/value) —
// the sim figure goldens pin this.

namespace {

// Key lists are indexed by PartitionId, so any real deployment has a small
// number of them; bounding the count up front stops a malformed frame from
// forcing large vector-of-vectors allocations before validation finishes
// (a 64MB frame could otherwise claim ~16M empty lists).
constexpr uint32_t kMaxWireLists = 1024;

/// A KvKey or KvValue on the wire: its length byte and its whole 8-byte
/// store (WireWriter::Str).
constexpr size_t kStrBytes = 1 + 8;

/// Per-partition lists: u32 list count, the `Total` element count, one u32
/// count per list, then every element, list by list. Each `elem_bytes` on
/// the wire. The reader bounds the total by the bytes left, and each list by
/// what the lists before it left of the total, before it sizes anything.
template <typename Total, typename Io, typename Lists>
void PartitionLists(Io& io, Lists& lists, size_t elem_bytes) {
  io.Seq32(lists, sizeof(uint32_t), kMaxWireLists);
  Total total = 0;
  for (const auto& l : lists) total += static_cast<Total>(l.size());
  io.Count(total, elem_bytes);
  uint64_t sum = 0;
  for (auto& l : lists) {
    io.Seq32(l, elem_bytes, total - sum);
    sum += l.size();
  }
  io.Require(sum == total);
  for (auto& l : lists) {
    for (auto& e : l) io.Field(e);
  }
}

template <typename Io, FieldsOf<KvArgs> A>
void Fields(Io& io, A& a) {
  io.Field(a.rounds);
  io.Flags(a.abort_txn, a.read_only);
  io.Field(a.abort_at);
  PartitionLists<uint64_t>(io, a.keys, kStrBytes);
}

template <typename Io, FieldsOf<KvResult> R>
void Fields(Io& io, R& r) {
  io.Seq64(r.values, sizeof(uint64_t));
  for (auto& v : r.values) io.Field(v);
}

template <typename Io, FieldsOf<KvRoundInput> I>
void Fields(Io& io, I& in) {
  PartitionLists<uint32_t>(io, in.values, sizeof(uint64_t));
}

template <typename T>
PayloadPtr Decode(WireReader& r) {
  auto p = std::make_shared<T>();
  Fields(r, *p);
  return r.ok() ? p : nullptr;
}

}  // namespace

void KvArgs::SerializeTo(WireWriter& w) const { Fields(w, *this); }
void KvResult::SerializeTo(WireWriter& w) const { Fields(w, *this); }
void KvRoundInput::SerializeTo(WireWriter& w) const { Fields(w, *this); }

bool DecodeKvArgsInto(WireReader& r, KvArgs* into) {
  Fields(r, *into);
  return r.ok();
}
PayloadPtr DecodeKvResult(WireReader& r) { return Decode<KvResult>(r); }
PayloadPtr DecodeKvRoundInput(WireReader& r) { return Decode<KvRoundInput>(r); }

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
  // Each entry is a key and a value: a count the bytes cannot hold is
  // refused before the store is touched.
  uint64_t n = 0;
  r.Count(n, 2 * kStrBytes);
  if (!r.ok()) return false;
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

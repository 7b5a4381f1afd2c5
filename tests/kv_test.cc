// KV store and microbenchmark engine unit tests: increment semantics, the
// two-round (general transaction) split, abort injection, undo, lock sets,
// state hashing, and the checkpoint state's bytes.
#include <memory>
#include <string>
#include <string_view>

#include "gtest/gtest.h"
#include "kv/kv_engine.h"
#include "kv/kv_workload.h"

namespace partdb {
namespace {

KvKey K(int slot) { return MicrobenchKey(0, 0, slot); }

std::unique_ptr<KvEngine> Engine4() {
  auto e = std::make_unique<KvEngine>(0);
  for (int i = 0; i < 4; ++i) e->store().Put(K(i), EncodeValue(100 + i));
  return e;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xf]);
  }
  return hex;
}

uint64_t Val(KvEngine& e, int slot) {
  KvValue v;
  EXPECT_TRUE(e.store().Get(K(slot), &v));
  return DecodeValue(v);
}

TEST(KvStore, ValueCodecRoundTrips) {
  for (uint64_t v : {0ull, 1ull, 12345678901234ull, ~0ull}) {
    EXPECT_EQ(DecodeValue(EncodeValue(v)), v);
  }
}

TEST(KvStore, GetPutAndUndo) {
  KvStore s;
  s.Put(K(0), EncodeValue(5));
  KvValue v;
  ASSERT_TRUE(s.Get(K(0), &v));
  EXPECT_EQ(DecodeValue(v), 5u);
  EXPECT_FALSE(s.Get(K(1), &v));

  UndoBuffer undo;
  s.Put(K(0), EncodeValue(9), &undo);  // overwrite
  s.Put(K(1), EncodeValue(7), &undo);  // fresh insert
  undo.Rollback();
  ASSERT_TRUE(s.Get(K(0), &v));
  EXPECT_EQ(DecodeValue(v), 5u);        // old value restored
  EXPECT_FALSE(s.Get(K(1), nullptr));   // insert removed
}

TEST(KvStore, StateHashReflectsContent) {
  KvStore a, b;
  a.Put(K(0), EncodeValue(1));
  b.Put(K(0), EncodeValue(1));
  EXPECT_EQ(a.StateHash(), b.StateHash());
  b.Put(K(0), EncodeValue(2));
  EXPECT_NE(a.StateHash(), b.StateHash());
}

TEST(KvEngine, SingleRoundReadsThenIncrements) {
  auto e = Engine4();
  KvArgs args;
  args.keys.resize(1);
  args.keys[0] = {K(0), K(2)};
  WorkMeter m;
  ExecResult r = e->Execute(args, 0, nullptr, nullptr, &m);
  ASSERT_FALSE(r.aborted);
  const auto& out = PayloadCast<KvResult>(*r.result);
  EXPECT_EQ(out.values, (std::vector<uint64_t>{100, 102}));  // pre-update reads
  EXPECT_EQ(Val(*e, 0), 101u);
  EXPECT_EQ(Val(*e, 2), 103u);
  EXPECT_EQ(m.reads, 2u);
  EXPECT_EQ(m.writes, 2u);
  EXPECT_GT(m.index_nodes, 0u);
}

TEST(KvEngine, TwoRoundSplitReadsThenWrites) {
  auto e = Engine4();
  KvArgs args;
  args.keys.resize(1);
  args.keys[0] = {K(1)};
  args.rounds = 2;

  WorkMeter m;
  ExecResult r0 = e->Execute(args, 0, nullptr, nullptr, &m);
  ASSERT_FALSE(r0.aborted);
  EXPECT_EQ(PayloadCast<KvResult>(*r0.result).values[0], 101u);
  EXPECT_EQ(Val(*e, 1), 101u);  // read round does not write

  KvRoundInput input;
  input.values = {{101}};
  ExecResult r1 = e->Execute(args, 1, &input, nullptr, &m);
  ASSERT_FALSE(r1.aborted);
  EXPECT_EQ(Val(*e, 1), 102u);  // write round applies input+1
}

TEST(KvEngine, AbortInjectionFiresAtStart) {
  auto e = Engine4();
  const uint64_t before = e->StateHash();
  KvArgs args;
  args.keys.resize(1);
  args.keys[0] = {K(0)};
  args.abort_txn = true;
  WorkMeter m;
  ExecResult r = e->Execute(args, 0, nullptr, nullptr, &m);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(e->StateHash(), before);  // nothing written
  EXPECT_EQ(m.writes, 0u);
}

TEST(KvEngine, MpAbortOnlyAtNamedPartition) {
  KvEngine e0(0);
  e0.store().Put(MicrobenchKey(0, 0, 0), EncodeValue(0));
  KvEngine e1(1);
  e1.store().Put(MicrobenchKey(0, 1, 0), EncodeValue(0));

  KvArgs args;
  args.keys.resize(2);
  args.keys[0] = {MicrobenchKey(0, 0, 0)};
  args.keys[1] = {MicrobenchKey(0, 1, 0)};
  args.abort_at = 1;

  WorkMeter m;
  EXPECT_FALSE(e0.Execute(args, 0, nullptr, nullptr, &m).aborted);
  EXPECT_TRUE(e1.Execute(args, 0, nullptr, nullptr, &m).aborted);
}

TEST(KvEngine, UndoRestoresEverything) {
  auto e = Engine4();
  const uint64_t before = e->StateHash();
  KvArgs args;
  args.keys.resize(1);
  args.keys[0] = {K(0), K(1), K(3)};
  UndoBuffer undo;
  WorkMeter m;
  ASSERT_FALSE(e->Execute(args, 0, nullptr, &undo, &m).aborted);
  EXPECT_NE(e->StateHash(), before);
  EXPECT_EQ(undo.size(), 3u);
  EXPECT_EQ(m.undo_records, 3u);
  undo.Rollback();
  EXPECT_EQ(e->StateHash(), before);
}

TEST(KvEngine, LockSetIsExclusivePerKeyOnce) {
  auto e = Engine4();
  KvArgs args;
  args.keys.resize(1);
  args.keys[0] = {K(0), K(2)};
  std::vector<LockRequest> locks;
  e->LockSet(args, 0, &locks);
  ASSERT_EQ(locks.size(), 2u);
  EXPECT_TRUE(locks[0].exclusive);
  EXPECT_TRUE(locks[1].exclusive);
  EXPECT_NE(locks[0].lock_id, locks[1].lock_id);

  // Round 1 of a general transaction re-uses round-0 locks: empty set.
  args.rounds = 2;
  locks.clear();
  e->LockSet(args, 1, &locks);
  EXPECT_TRUE(locks.empty());
}

TEST(KvEngine, DeterministicAcrossInstances) {
  auto a = Engine4();
  auto b = Engine4();
  KvArgs args;
  args.keys.resize(1);
  args.keys[0] = {K(0), K(1)};
  WorkMeter m;
  a->Execute(args, 0, nullptr, nullptr, &m);
  b->Execute(args, 0, nullptr, nullptr, &m);
  EXPECT_EQ(a->StateHash(), b->StateHash());
}

// The engine's checkpoint state (u64 entry count, then each key and value as
// a 9-byte fixed-width string in table order) is pinned: images written
// earlier must still restore.
TEST(KvCheckpoint, ImageBytesArePinned) {
  auto e = Engine4();
  std::string image;
  WireWriter w(&image);
  e->SerializeState(w);
  EXPECT_EQ(Hex(image),
            "04000000000000000800000000000000000864000000000000000803000000000000000867000000"
            "00000000080200000000000000086600000000000000080100000000000000086500000000000000");

  KvEngine fresh(0);
  WireReader r(image);
  ASSERT_TRUE(fresh.RestoreState(r));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(fresh.StateHash(), e->StateHash());
  std::string again;
  WireWriter w2(&again);
  fresh.SerializeState(w2);
  EXPECT_TRUE(again == image);
}

// Each entry is 18 bytes: an image claiming one entry more than its bytes
// hold is refused before the store is touched.
TEST(KvCheckpoint, RestoreRefusesACountTheBytesCannotHold) {
  std::string image;
  WireWriter w(&image);
  Engine4()->SerializeState(w);
  ASSERT_EQ(image.size(), 8u + 4u * 18u);
  image[0] = 5;

  auto e = Engine4();
  e->store().Put(K(9), EncodeValue(7));
  const uint64_t before = e->StateHash();
  WireReader r(image);
  EXPECT_FALSE(e->RestoreState(r));
  EXPECT_EQ(e->StateHash(), before);
  EXPECT_EQ(e->store().size(), 5u);
}

}  // namespace
}  // namespace partdb

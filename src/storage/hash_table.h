// Open-addressing hash table with linear probing and backward-shift deletion.
// The workhorse index for point lookups (microbenchmark store, TPC-C item /
// stock / customer primary indexes). Keys need a Hash() free function or a
// Hasher functor; probe counts are reported to the WorkMeter.
#ifndef PARTDB_STORAGE_HASH_TABLE_H_
#define PARTDB_STORAGE_HASH_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "engine/work_meter.h"

namespace partdb {

/// Default hasher: uses member Hash() if present, else Mix64 for integers.
struct DefaultHasher {
  template <typename K>
  uint64_t operator()(const K& k) const {
    if constexpr (requires { k.Hash(); }) {
      return k.Hash();
    } else {
      return Mix64(static_cast<uint64_t>(k));
    }
  }
};

template <typename K, typename V, typename Hasher = DefaultHasher>
class HashTable {
 public:
  explicit HashTable(size_t initial_capacity = 16) {
    size_t cap = 16;
    while (cap < initial_capacity * 2) cap <<= 1;
    slots_.resize(cap);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  /// Returns the value for `key`, or nullptr. Probes counted into `m`. The
  /// probe loop is the const overload's, so a shared read-only table is read
  /// only through code that cannot write it.
  const V* Find(const K& key, WorkMeter* m = nullptr) const {
    const size_t mask = slots_.size() - 1;
    size_t i = hasher_(key) & mask;
    uint32_t probes = 1;
    while (slots_[i].state == State::kFull) {
      if (slots_[i].kv.first == key) {
        Meter(m, probes);
        return &slots_[i].kv.second;
      }
      i = (i + 1) & mask;
      ++probes;
    }
    Meter(m, probes);
    return nullptr;
  }
  V* Find(const K& key, WorkMeter* m = nullptr) {
    return const_cast<V*>(std::as_const(*this).Find(key, m));
  }

  /// Inserts (key, value). Returns {value*, true} if inserted, or
  /// {existing*, false} if the key was already present (value unchanged).
  std::pair<V*, bool> Insert(const K& key, V value, WorkMeter* m = nullptr) {
    MaybeGrow();
    const size_t mask = slots_.size() - 1;
    size_t i = hasher_(key) & mask;
    uint32_t probes = 1;
    while (slots_[i].state == State::kFull) {
      if (slots_[i].kv.first == key) {
        Meter(m, probes);
        return {&slots_[i].kv.second, false};
      }
      i = (i + 1) & mask;
      ++probes;
    }
    slots_[i].state = State::kFull;
    slots_[i].kv = {key, std::move(value)};
    ++size_;
    Meter(m, probes);
    return {&slots_[i].kv.second, true};
  }

  /// Inserts or overwrites. Returns pointer to the stored value.
  V* Put(const K& key, V value, WorkMeter* m = nullptr) {
    MaybeGrow();
    const size_t mask = slots_.size() - 1;
    size_t i = hasher_(key) & mask;
    uint32_t probes = 1;
    while (slots_[i].state == State::kFull) {
      if (slots_[i].kv.first == key) {
        slots_[i].kv.second = std::move(value);
        Meter(m, probes);
        return &slots_[i].kv.second;
      }
      i = (i + 1) & mask;
      ++probes;
    }
    slots_[i].state = State::kFull;
    slots_[i].kv = {key, std::move(value)};
    ++size_;
    Meter(m, probes);
    return &slots_[i].kv.second;
  }

  /// Removes `key`. Returns true if it was present. Uses backward-shift
  /// deletion, so no tombstones accumulate.
  bool Erase(const K& key, WorkMeter* m = nullptr) {
    const size_t mask = slots_.size() - 1;
    size_t i = hasher_(key) & mask;
    uint32_t probes = 1;
    while (slots_[i].state == State::kFull) {
      if (slots_[i].kv.first == key) break;
      i = (i + 1) & mask;
      ++probes;
    }
    if (slots_[i].state != State::kFull) {
      Meter(m, probes);
      return false;
    }
    // Backward-shift: re-place the probe chain after the hole.
    size_t hole = i;
    size_t j = (i + 1) & mask;
    while (slots_[j].state == State::kFull) {
      const size_t home = hasher_(slots_[j].kv.first) & mask;
      // Can slot j legally move into the hole? Yes iff home is not in the
      // (cyclic) interval (hole, j].
      const bool between = ((j - home) & mask) >= ((j - hole) & mask);
      if (between) {
        slots_[hole].kv = std::move(slots_[j].kv);
        hole = j;
      }
      j = (j + 1) & mask;
      ++probes;
    }
    slots_[hole].state = State::kEmpty;
    slots_[hole].kv = {};
    --size_;
    Meter(m, probes);
    return true;
  }

  /// Removes every entry, keeping the slot array's capacity (checkpoint
  /// restore repopulates a table of roughly the same size).
  void Clear() {
    for (auto& s : slots_) {
      s.state = State::kEmpty;
      s.kv = {};
    }
    size_ = 0;
  }

  /// Invokes fn(key, value&) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& s : slots_) {
      if (s.state == State::kFull) fn(s.kv.first, s.kv.second);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& s : slots_) {
      if (s.state == State::kFull) fn(s.kv.first, s.kv.second);
    }
  }

 private:
  enum class State : uint8_t { kEmpty = 0, kFull = 1 };
  struct Slot {
    State state = State::kEmpty;
    std::pair<K, V> kv{};
  };

  static void Meter(WorkMeter* m, uint32_t probes) {
    if (m != nullptr) m->index_nodes += probes;
  }

  void MaybeGrow() {
    if (size_ * 10 < slots_.size() * 7) return;  // load factor 0.7
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(old.size() * 2);
    size_ = 0;
    for (auto& s : old) {
      if (s.state == State::kFull) Insert(s.kv.first, std::move(s.kv.second));
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  Hasher hasher_;
};

}  // namespace partdb

#endif  // PARTDB_STORAGE_HASH_TABLE_H_

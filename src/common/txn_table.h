// TxnTable: the in-flight transactions of one actor, with their map nodes
// recycled. A key is any 64-bit id that is unique among the present entries:
// a txn id, a partition's hold seq or a client's request seq. Erase resets
// the entry (T::Reset(), which drops payloads but keeps the capacity of T's
// buffers) and parks its node; the next Emplace reattaches a parked node
// under the new id. A steady workload therefore stops allocating per
// transaction: no map node, and no regrowth of the vectors inside T. Entries
// do not move while present, so a pointer to one (a LockManager::Owner, say)
// stays valid until its Erase.
#ifndef PARTDB_COMMON_TXN_TABLE_H_
#define PARTDB_COMMON_TXN_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace partdb {

template <typename T>
class TxnTable {
  using Map = std::unordered_map<uint64_t, T>;

 public:
  /// Parked nodes kept for reuse. Enough for the transactions a partition or
  /// a session finishes between two starts; a burst beyond it frees the rest.
  static constexpr size_t kMaxSpare = 64;

  T* Find(uint64_t id) {
    auto it = map_.find(id);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Adds `id`, which must be absent. The entry is a default-constructed T or
  /// a Reset() one with its buffers' capacity kept.
  T& Emplace(uint64_t id) {
    if (spare_.empty()) {
      auto ins = map_.try_emplace(id);
      PARTDB_CHECK(ins.second);
      return ins.first->second;
    }
    spare_.back().key() = id;
    auto ins = map_.insert(std::move(spare_.back()));
    spare_.pop_back();
    PARTDB_CHECK(ins.inserted);
    return ins.position->second;
  }

  /// Resets and removes `id`, which must be present.
  void Erase(uint64_t id) {
    auto it = map_.find(id);
    PARTDB_CHECK(it != map_.end());
    auto nh = map_.extract(it);
    nh.mapped().Reset();
    if (spare_.size() < kMaxSpare) spare_.push_back(std::move(nh));
  }

  bool empty() const { return map_.empty(); }
  size_t size() const { return map_.size(); }
  size_t spare() const { return spare_.size(); }

  /// Every present entry, as (id, T) pairs in no particular order.
  typename Map::iterator begin() { return map_.begin(); }
  typename Map::iterator end() { return map_.end(); }

 private:
  Map map_;
  std::vector<typename Map::node_type> spare_;
};

}  // namespace partdb

#endif  // PARTDB_COMMON_TXN_TABLE_H_

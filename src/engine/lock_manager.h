// Single-threaded lock manager for the locking scheme (paper §4.3). Because
// each partition runs one thread, there is no latching: this is purely a
// bookkeeping structure for *logical* concurrency. Shared/exclusive modes,
// FIFO wait queues (upgrades jump the queue), and on-demand waits-for cycle
// detection for local deadlocks.
//
// The manager keeps no per-owner state of its own: each transaction is its
// own `Owner` (LockingCc::LTxn derives from it), so the held ids and the one
// waiting request live in the transaction. An Owner must outlive its
// ReleaseAll, it has at most one outstanding (queued) request, and it belongs
// to one manager. A lock entry emptied by a release is kept on a free list
// and reused for the next lock id, and the cycle search marks the owners it
// visits and reuses its stack, so a steady workload stops allocating.
#ifndef PARTDB_ENGINE_LOCK_MANAGER_H_
#define PARTDB_ENGINE_LOCK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "engine/work_meter.h"

namespace partdb {

class LockManager {
 public:
  /// One transaction's lock state. The manager reads and writes the fields;
  /// the owner may only reserve `held`.
  struct Owner {
    std::vector<uint64_t> held;  // lock ids held (any mode)
    uint64_t waiting_lock = 0;
    bool waiting = false;
    bool waiting_exclusive = false;  // mode of the queued request
    uint64_t search_mark = 0;        // the last FindCycle that visited it
  };

  /// A lock grant delivered by ReleaseAll: `owner`'s queued request is now
  /// held. When all of an owner's pending requests have been granted the
  /// transaction can run.
  struct Granted {
    Owner* owner;
    bool exclusive;
  };

  /// Attempts to acquire `lock_id` in the given mode for `owner`.
  /// Returns true if granted immediately; otherwise the request is queued
  /// (upgrades at the front) and false is returned. Re-acquiring a lock the
  /// owner already holds (at equal or weaker mode) is a granted no-op.
  bool Acquire(uint64_t lock_id, Owner* owner, bool exclusive, WorkMeter* m);

  /// Releases every lock `owner` holds and cancels any queued request.
  /// Newly runnable grants (for other owners) are appended to `granted`.
  void ReleaseAll(Owner* owner, WorkMeter* m, std::vector<Granted>* granted);

  /// True if `owner` has a queued (not yet granted) request.
  bool IsWaiting(const Owner* owner) const { return owner->waiting; }

  /// The lock a waiting owner is queued on (undefined if not waiting).
  uint64_t WaitingOn(const Owner* owner) const;

  /// Searches the waits-for graph for a cycle reachable from `start` (which
  /// must be waiting). On success fills `cycle` with the owners on the cycle
  /// (start included) and returns true.
  bool FindCycle(Owner* start, std::vector<Owner*>* cycle);

  /// True when no locks are held and nobody waits: the partition may use the
  /// no-lock fast path for single-partition transactions.
  bool Empty() const { return table_.empty(); }

  size_t HeldCount(const Owner* owner) const;

 private:
  struct LockEntry {
    bool exclusive = false;       // mode of current holders
    std::vector<Owner*> holders;  // size 1 if exclusive
    std::vector<Owner*> queue;    // FIFO of waiters; an upgrade goes first
  };
  using Table = std::unordered_map<uint64_t, LockEntry>;

  static bool Holds(const LockEntry& e, const Owner* owner);
  /// Grants queue-head requests that are now compatible.
  void GrantFromQueue(uint64_t lock_id, LockEntry* e, std::vector<Granted>* granted);
  /// Moves an entry with no holders and no waiters to the free list.
  void RetireIfUnused(Table::iterator it);
  bool DfsCycle(Owner* node, Owner* start, std::vector<Owner*>* cycle);

  Table table_;
  std::vector<Table::node_type> free_entries_;
  // FindCycle's state, reused across searches: an owner whose search_mark is
  // search_ was visited by the current one, and stack_ is its DFS path.
  uint64_t search_ = 0;
  std::vector<Owner*> stack_;
};

}  // namespace partdb

#endif  // PARTDB_ENGINE_LOCK_MANAGER_H_

#include "engine/lock_manager.h"

#include <algorithm>

#include "common/logging.h"

namespace partdb {

bool LockManager::Holds(const LockEntry& e, const Owner* owner) {
  return std::find(e.holders.begin(), e.holders.end(), owner) != e.holders.end();
}

bool LockManager::Acquire(uint64_t lock_id, Owner* owner, bool exclusive, WorkMeter* m) {
  if (m != nullptr) {
    m->lock_acquires++;
    m->lock_table_ops++;  // entry lookup/create
  }
  PARTDB_CHECK(!owner->waiting);  // one outstanding request per owner

  auto it = table_.find(lock_id);
  if (it == table_.end() && free_entries_.empty()) {
    it = table_.try_emplace(lock_id).first;
  } else if (it == table_.end()) {
    free_entries_.back().key() = lock_id;
    it = table_.insert(std::move(free_entries_.back())).position;
    free_entries_.pop_back();
  }
  LockEntry& e = it->second;

  const bool self_holds = Holds(e, owner);
  if (self_holds) {
    if (!exclusive || e.exclusive) return true;  // equal/weaker re-acquire
    // Upgrade S -> X.
    if (e.holders.size() == 1) {
      e.exclusive = true;
      return true;
    }
    // Queue the upgrade at the front; grant happens when other holders leave.
    e.queue.insert(e.queue.begin(), owner);
    owner->waiting = true;
    owner->waiting_lock = lock_id;
    owner->waiting_exclusive = true;
    if (m != nullptr) m->lock_waits++;
    return false;
  }

  const bool compatible = !exclusive && !e.exclusive && e.queue.empty();
  if (compatible) {
    e.holders.push_back(owner);
    owner->held.push_back(lock_id);
    return true;
  }
  if (e.holders.empty() && e.queue.empty()) {
    // A new or reused entry; take it.
    e.exclusive = exclusive;
    e.holders.push_back(owner);
    owner->held.push_back(lock_id);
    return true;
  }
  e.queue.push_back(owner);
  owner->waiting = true;
  owner->waiting_lock = lock_id;
  owner->waiting_exclusive = exclusive;
  if (m != nullptr) m->lock_waits++;
  return false;
}

void LockManager::GrantFromQueue(uint64_t lock_id, LockEntry* e, std::vector<Granted>* granted) {
  while (!e->queue.empty()) {
    Owner* w = e->queue.front();
    const bool exclusive = w->waiting_exclusive;
    if (exclusive) {
      const bool upgrade = Holds(*e, w);
      if (upgrade) {
        if (e->holders.size() != 1) break;  // other S holders remain
        e->exclusive = true;
      } else {
        if (!e->holders.empty()) break;
        e->exclusive = true;
        e->holders.push_back(w);
        w->held.push_back(lock_id);
      }
    } else {
      if (!e->holders.empty() && e->exclusive) break;
      e->exclusive = false;
      e->holders.push_back(w);
      w->held.push_back(lock_id);
    }
    e->queue.erase(e->queue.begin());
    w->waiting = false;
    granted->push_back(Granted{w, exclusive});
    if (exclusive) break;  // X grant blocks everything behind it
  }
}

void LockManager::RetireIfUnused(Table::iterator it) {
  if (it->second.holders.empty() && it->second.queue.empty()) {
    free_entries_.push_back(table_.extract(it));
  }
}

void LockManager::ReleaseAll(Owner* owner, WorkMeter* m, std::vector<Granted>* granted) {
  if (owner->waiting) {
    owner->waiting = false;
    auto it = table_.find(owner->waiting_lock);
    PARTDB_CHECK(it != table_.end());
    auto& q = it->second.queue;
    auto qi = std::find(q.begin(), q.end(), owner);
    PARTDB_CHECK(qi != q.end());
    q.erase(qi);
    if (m != nullptr) m->lock_table_ops++;
    // Removing a waiter can unblock the queue behind it.
    GrantFromQueue(owner->waiting_lock, &it->second, granted);
    RetireIfUnused(it);
  }

  for (uint64_t lock_id : owner->held) {
    auto it = table_.find(lock_id);
    PARTDB_CHECK(it != table_.end());
    LockEntry& e = it->second;
    auto hi = std::find(e.holders.begin(), e.holders.end(), owner);
    if (hi == e.holders.end()) continue;  // duplicate entry from upgrade path
    e.holders.erase(hi);
    if (m != nullptr) {
      m->lock_releases++;
      m->lock_table_ops++;
    }
    GrantFromQueue(lock_id, &e, granted);
    RetireIfUnused(it);
  }
  owner->held.clear();
}

uint64_t LockManager::WaitingOn(const Owner* owner) const {
  PARTDB_CHECK(owner->waiting);
  return owner->waiting_lock;
}

bool LockManager::DfsCycle(Owner* node, Owner* start, std::vector<Owner*>* cycle) {
  node->search_mark = search_;
  stack_.push_back(node);

  if (node->waiting) {
    // The search reads the table and never changes it, so `e` stays valid.
    auto lit = table_.find(node->waiting_lock);
    PARTDB_CHECK(lit != table_.end());
    const LockEntry& e = lit->second;
    const bool my_x = node->waiting_exclusive;

    auto reaches_start = [&](Owner* t) {
      if (t == start) {
        *cycle = stack_;
        return true;
      }
      return t->search_mark != search_ && DfsCycle(t, start, cycle);
    };
    for (Owner* h : e.holders) {
      if (h != node && reaches_start(h)) return true;
    }
    // Incompatible requests queued ahead of us also block us.
    for (Owner* w : e.queue) {
      if (w == node) break;
      if ((w->waiting_exclusive || my_x) && reaches_start(w)) return true;
    }
  }
  stack_.pop_back();
  return false;
}

bool LockManager::FindCycle(Owner* start, std::vector<Owner*>* cycle) {
  ++search_;
  stack_.clear();
  cycle->clear();
  return DfsCycle(start, start, cycle);
}

size_t LockManager::HeldCount(const Owner* owner) const {
  size_t n = 0;
  for (uint64_t id : owner->held) {
    auto lit = table_.find(id);
    if (lit != table_.end() && Holds(lit->second, owner)) ++n;
  }
  return n;
}

}  // namespace partdb

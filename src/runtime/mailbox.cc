#include "runtime/mailbox.h"

#include <unordered_set>

#include "common/logging.h"

namespace partdb {

namespace mailbox_internal {

/// Per-producer-thread freelist of mailbox nodes. The owner thread acquires
/// from a private list (refilled wholesale from a lock-free return stack);
/// the consumer — any thread — returns nodes with a CAS push. A cache stays
/// alive past its owner thread's exit until the last outstanding node comes
/// home: refs = 1 (owner) + outstanding nodes, and whoever drops refs to
/// zero deletes it.
class NodeCache {
 public:
  NodeCache();

  MailboxNode* AcquireNode() {
    if (free_ == nullptr) StealReturns();
    MailboxNode* n = free_;
    if (n != nullptr) {
      free_ = n->next.load(std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      n = new MailboxNode();
      n->home = this;
      misses_.fetch_add(1, std::memory_order_relaxed);
    }
    refs_.fetch_add(1, std::memory_order_relaxed);
    return n;
  }

  void ReleaseNode(MailboxNode* n) {
    // CAS push (not a bare exchange): the link must be in place before the
    // node is reachable, or the owner's steal-all would walk a torn list.
    MailboxNode* head = returns_.load(std::memory_order_relaxed);
    uint64_t retries = 0;
    do {
      n->next.store(head, std::memory_order_relaxed);
    } while (!returns_.compare_exchange_weak(head, n, std::memory_order_release,
                                             std::memory_order_relaxed) &&
             ++retries != 0);
    if (retries != 0) cas_retries_.fetch_add(retries, std::memory_order_relaxed);
    DropRef();
  }

  void DropOwner() { DropRef(); }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t cas_retries() const { return cas_retries_.load(std::memory_order_relaxed); }

 private:
  ~NodeCache();

  void StealReturns() {
    MailboxNode* list = returns_.exchange(nullptr, std::memory_order_acquire);
    while (list != nullptr) {
      MailboxNode* next = list->next.load(std::memory_order_relaxed);
      list->next.store(free_, std::memory_order_relaxed);
      free_ = list;
      list = next;
    }
  }

  void DropRef() {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

  MailboxNode* free_ = nullptr;               // owner thread only
  std::atomic<MailboxNode*> returns_{nullptr};  // MPSC return stack
  /// 1 for the owner thread + 1 per node currently outside the freelists.
  std::atomic<uint64_t> refs_{1};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> cas_retries_{0};
};

namespace {

/// Live caches plus counters folded in from deleted ones. Leaked on purpose:
/// a cache can be deleted from any thread at any point of shutdown, so the
/// registry must not be subject to static destruction order.
struct CacheRegistry {
  Mutex mu;
  std::unordered_set<NodeCache*> caches PARTDB_GUARDED_BY(mu);
  uint64_t retired_hits PARTDB_GUARDED_BY(mu) = 0;
  uint64_t retired_misses PARTDB_GUARDED_BY(mu) = 0;
  uint64_t retired_cas_retries PARTDB_GUARDED_BY(mu) = 0;
};

CacheRegistry& Registry() {
  static CacheRegistry* r = new CacheRegistry();
  return *r;
}

struct TlsCacheHolder {
  NodeCache* cache = nullptr;
  ~TlsCacheHolder() {
    if (cache != nullptr) cache->DropOwner();
  }
};

NodeCache* LocalCache() {
  thread_local TlsCacheHolder tls;
  if (tls.cache == nullptr) tls.cache = new NodeCache();
  return tls.cache;
}

}  // namespace

NodeCache::NodeCache() {
  CacheRegistry& r = Registry();
  MutexLock lock(r.mu);
  r.caches.insert(this);
}

NodeCache::~NodeCache() {
  CacheRegistry& r = Registry();
  {
    MutexLock lock(r.mu);
    r.retired_hits += hits();
    r.retired_misses += misses();
    r.retired_cas_retries += cas_retries();
    r.caches.erase(this);
  }
  // refs_ == 0: every node ever handed out is back on one of the two lists.
  StealReturns();
  while (free_ != nullptr) {
    MailboxNode* next = free_->next.load(std::memory_order_relaxed);
    delete free_;
    free_ = next;
  }
}

}  // namespace mailbox_internal

MailboxNode* AcquireMailboxNode() { return mailbox_internal::LocalCache()->AcquireNode(); }

void ReleaseMailboxNode(MailboxNode* n) {
  PARTDB_DCHECK(n->kind == MailboxNode::Kind::kNone);
  n->home->ReleaseNode(n);
}

MailboxNodeCacheStats MailboxNodeCaches() {
  mailbox_internal::CacheRegistry& r = mailbox_internal::Registry();
  MutexLock lock(r.mu);
  MailboxNodeCacheStats s;
  s.hits = r.retired_hits;
  s.misses = r.retired_misses;
  s.cas_retries = r.retired_cas_retries;
  for (const mailbox_internal::NodeCache* c : r.caches) {
    s.hits += c->hits();
    s.misses += c->misses();
    s.cas_retries += c->cas_retries();
  }
  s.live_caches = r.caches.size();
  return s;
}

Mailbox::Mailbox() {
  tail_.store(&stub_, std::memory_order_relaxed);
  head_.store(&stub_, std::memory_order_relaxed);
}

Mailbox::~Mailbox() {
  // Precondition: producers have stopped (the runtime joins its workers and
  // severs ingress before tearing mailboxes down). Anything still queued is
  // dropped here, releasing nodes and their payload references.
  for (;;) {
    MailboxNode* n = TryPop();
    if (n == nullptr) {
      if (Empty()) break;
      std::this_thread::yield();  // a last in-flight link; let it land
      continue;
    }
    n->Reset();
    ReleaseMailboxNode(n);
  }
}

void Mailbox::PushNode(MailboxNode* n) {
  pushed_.fetch_add(1, std::memory_order_relaxed);
  n->next.store(nullptr, std::memory_order_relaxed);
  // seq_cst exchange: publishes the node and anchors the Dekker handshake
  // with the consumer's parked_ store / tail_ load sequence.
  MailboxNode* prev = tail_.exchange(n, std::memory_order_seq_cst);
  prev->next.store(n, std::memory_order_release);
  // Wake only on the empty->nonempty edge, and only when the consumer is
  // (or is about to be) parked. If the consumer misses this push when
  // deciding to park, seq_cst ordering guarantees we see its parked_ flag.
  if (prev == &stub_ && parked_.load(std::memory_order_seq_cst)) {
    {
      // Taking the mutex closes the race with a consumer between raising
      // parked_ and entering the wait: the notify cannot fire in that gap.
      MutexLock lock(park_mu_);
    }
    park_cv_.NotifyOne();
    wakes_.fetch_add(1, std::memory_order_relaxed);
  }
}

MailboxNode* Mailbox::TryPop() {
  MailboxNode* head = head_.load(std::memory_order_relaxed);  // consumer-owned
  MailboxNode* next = head->next.load(std::memory_order_acquire);
  if (head == &stub_) {
    if (next == nullptr) return nullptr;  // empty (or first link not yet visible)
    head_.store(next, std::memory_order_release);
    head = next;
    next = head->next.load(std::memory_order_acquire);
  }
  if (next != nullptr) {
    head_.store(next, std::memory_order_release);
    return head;
  }
  // `head` is the last reachable node. If a producer has already exchanged
  // past it, its link is in flight — back off (caller retries).
  if (head != tail_.load(std::memory_order_acquire)) return nullptr;
  // Sole queued node: re-push the stub so the chain never goes headless,
  // then detach `head`.
  stub_.next.store(nullptr, std::memory_order_relaxed);
  MailboxNode* prev = tail_.exchange(&stub_, std::memory_order_acq_rel);
  prev->next.store(&stub_, std::memory_order_release);
  next = head->next.load(std::memory_order_acquire);
  if (next != nullptr) {
    head_.store(next, std::memory_order_release);
    return head;
  }
  // A producer exchanged between our tail read and stub re-push; its link
  // will land momentarily. Nothing consumed this round.
  return nullptr;
}

bool Mailbox::WaitNonEmptyUntil(std::chrono::steady_clock::time_point deadline) {
  // Dekker handshake with PushNode: raise the flag (seq_cst), then re-check
  // emptiness (the tail_ load inside Empty() is seq_cst). A producer whose
  // exchange we miss here is ordered after our store and must see parked_.
  parked_.store(true, std::memory_order_seq_cst);
  if (!Empty()) {
    parked_.store(false, std::memory_order_release);
    // A producer that landed between the flag and the re-check may have seen
    // parked_ and fired a wake anyway; count the aborted park too, so every
    // wake has its park.
    parks_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  parks_.fetch_add(1, std::memory_order_relaxed);
  // Park event for quiescence detection — after parked_ is visible, so the
  // waiter's re-check observes a consistent (parked && empty) snapshot.
  if (idle_signal_ != nullptr && idle_signal_->armed.load(std::memory_order_acquire)) {
    {
      MutexLock lock(idle_signal_->mu);
    }
    idle_signal_->cv.NotifyAll();
  }
  bool nonempty = true;
  {
    MutexLock lock(park_mu_);
    while (Empty()) {
      if (!park_cv_.WaitUntil(park_mu_, deadline) && Empty()) {
        nonempty = false;
        break;
      }
    }
  }
  parked_.store(false, std::memory_order_release);
  return nonempty;
}

}  // namespace partdb

#include "durability/durability_manager.h"

#include <utility>

#include "common/logging.h"

namespace partdb {

const char* DurabilityModeName(DurabilityMode m) {
  switch (m) {
    case DurabilityMode::kOff: return "off";
    case DurabilityMode::kAsync: return "async";
    case DurabilityMode::kGroupCommit: return "group_commit";
  }
  return "?";
}

DurabilityManager::DurabilityManager(Options options,
                                     const std::vector<PartitionSeed>& seeds)
    : options_(std::move(options)) {
  PARTDB_CHECK(options_.mode != DurabilityMode::kOff);
  PARTDB_CHECK(!options_.dir.empty());
  PARTDB_CHECK(static_cast<int>(seeds.size()) == options_.num_partitions);
  for (int p = 0; p < options_.num_partitions; ++p) {
    PartitionLog::Config cfg;
    cfg.dir = options_.dir;
    cfg.partition = p;
    cfg.num_partitions = options_.num_partitions;
    cfg.window = options_.group_commit_window;
    cfg.procs = options_.procs;
    cfg.next_seq = seeds[static_cast<size_t>(p)].next_seq;
    cfg.next_segment = seeds[static_cast<size_t>(p)].next_segment;
    cfg.mp_history = seeds[static_cast<size_t>(p)].mp_history;
    logs_.push_back(std::make_unique<PartitionLog>(this, std::move(cfg)));
  }
}

DurabilityManager::~DurabilityManager() { Shutdown(); }

void DurabilityManager::Start(ExecutionContext* exec) {
  PARTDB_CHECK(exec != nullptr);
  exec_ = exec;
  for (auto& log : logs_) log->Start();
  started_ = true;
}

void DurabilityManager::Shutdown() {
  if (!started_) return;
  started_ = false;
  for (auto& log : logs_) log->Shutdown();
  MutexLock lock(mu_);
  gates_.clear();
}

bool DurabilityManager::SealOrDefer(TxnId txn, uint32_t need) {
  if (!gating()) return true;
  PARTDB_CHECK(need > 0);
  MutexLock lock(mu_);
  if (released_all_) return true;  // injected crash: everything completes
  Gate& g = gates_[txn];
  if (g.durable >= need) {
    gates_.erase(txn);
    return true;
  }
  g.need = need;
  ++deferred_completions_;
  return false;
}

uint64_t DurabilityManager::AdmitRecords(uint64_t n) {
  if (options_.crash_after_n_commits == 0) return n;
  const uint64_t before = admitted_records_.fetch_add(n, std::memory_order_relaxed);
  if (before >= options_.crash_after_n_commits) return 0;
  const uint64_t room = options_.crash_after_n_commits - before;
  return room < n ? room : n;
}

void DurabilityManager::OnRecordsDurable(const std::vector<TxnId>& txns) {
  // Only group commit tracks per-txn durability; async mode would grow the
  // gate table without bound (nothing ever seals).
  if (!gating()) return;
  // Collect the wakes under the lock, send them outside it (Send takes the
  // runtime's mailbox paths; no reason to hold the gate lock across them).
  std::vector<TxnId> wakes;
  {
    MutexLock lock(mu_);
    if (released_all_) return;
    for (TxnId txn : txns) {
      Gate& g = gates_[txn];
      ++g.durable;
      if (g.need > 0 && g.durable >= g.need) {
        wakes.push_back(txn);
        gates_.erase(txn);
      }
    }
  }
  for (TxnId txn : wakes) Wake(txn);
}

void DurabilityManager::TriggerCrash() {
  // Publish the flag before releasing anyone: a completion callback that
  // observes crashed() == false was woken by a genuinely durable batch.
  crashed_.store(true, std::memory_order_release);
  std::vector<TxnId> wakes;
  {
    MutexLock lock(mu_);
    if (released_all_) return;
    released_all_ = true;
    for (const auto& [txn, gate] : gates_) {
      if (gate.need > 0) wakes.push_back(txn);
    }
    gates_.clear();
  }
  for (TxnId txn : wakes) Wake(txn);
}

void DurabilityManager::Wake(TxnId txn) {
  const NodeId session = static_cast<NodeId>(TxnClient(txn));
  Message msg;
  msg.src = session;
  msg.dst = session;
  msg.body = DurableNotice{txn};
  exec_->Send(std::move(msg), exec_->Now());
}

DurabilityStats DurabilityManager::GetStats() const {
  DurabilityStats out;
  for (const auto& log : logs_) {
    const PartitionLogStats s = log->GetStats();
    out.records += s.records;
    out.bytes_logged += s.bytes_logged;
    out.batches += s.batches;
    out.fsyncs += s.fsyncs;
    out.writer_wakes += s.wakes;
  }
  MutexLock lock(mu_);
  out.deferred_completions = deferred_completions_;
  return out;
}

}  // namespace partdb

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

void DurabilityManager::Start(ExecutionContext* exec, const std::vector<NodeId>& partition_nodes) {
  PARTDB_CHECK(exec != nullptr);
  for (size_t p = 0; p < logs_.size(); ++p) {
    logs_[p]->Start(holds_replies() ? exec : nullptr, partition_nodes[p]);
  }
}

void DurabilityManager::Shutdown() {
  for (auto& log : logs_) log->Shutdown();
}

uint64_t DurabilityManager::AdmitRecords(uint64_t n) {
  if (options_.crash_after_n_commits == 0) return n;
  const uint64_t before = admitted_records_.fetch_add(n, std::memory_order_relaxed);
  if (before >= options_.crash_after_n_commits) return 0;
  const uint64_t room = options_.crash_after_n_commits - before;
  return room < n ? room : n;
}

DurabilityStats DurabilityManager::GetStats() const {
  DurabilityStats out;
  for (const auto& log : logs_) out += log->GetStats();
  return out;
}

}  // namespace partdb

#include "db/procedure_registry.h"

#include "common/logging.h"

namespace partdb {

ProcId ProcedureRegistry::Register(ProcedureDescriptor desc) {
  PARTDB_CHECK(!desc.name.empty());
  PARTDB_CHECK(desc.route != nullptr);
  PARTDB_CHECK((desc.make_args == nullptr) == (desc.decode_args_into == nullptr));
  const ProcId id = static_cast<ProcId>(procs_.size());
  PARTDB_CHECK(by_name_.emplace(desc.name, id).second);  // unique names
  procs_.push_back(std::move(desc));
  stats_.push_back(std::make_unique<ProcStats>());
  return id;
}

PayloadPtr DecodeArgs(const ProcedureDescriptor& desc, WireReader& r) {
  if (desc.make_args == nullptr) return nullptr;
  std::shared_ptr<Payload> args = desc.make_args();
  if (!desc.decode_args_into(r, args.get())) return nullptr;
  return args;
}

ProcId ProcedureRegistry::Find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? kInvalidProc : it->second;
}

const ProcedureDescriptor& ProcedureRegistry::Get(ProcId id) const {
  PARTDB_CHECK(id >= 0 && static_cast<size_t>(id) < procs_.size());
  return procs_[id];
}

PayloadPtr ProcedureRegistry::NextRoundInput(
    ProcId proc, const Payload& args, int round,
    const std::vector<std::pair<PartitionId, PayloadPtr>>& prev) {
  const ProcedureDescriptor& d = Get(proc);
  PARTDB_CHECK(d.round_input != nullptr);  // multi-round proc needs a continuation
  return d.round_input(args, round, prev);
}

void ProcedureRegistry::RecordProcOutcome(ProcId proc, bool committed, Duration latency_ns) {
  PARTDB_CHECK(proc >= 0 && static_cast<size_t>(proc) < stats_.size());
  ProcStats& s = *stats_[proc];
  if (committed) {
    s.committed.fetch_add(1, std::memory_order_relaxed);
  } else {
    s.user_aborts.fetch_add(1, std::memory_order_relaxed);
  }
  MutexLock lock(s.mu);
  s.latency.Add(latency_ns);
}

std::vector<ProcMetricsSnapshot> ProcedureRegistry::ProcMetrics() const {
  std::vector<ProcMetricsSnapshot> out;
  out.reserve(procs_.size());
  for (size_t i = 0; i < procs_.size(); ++i) {
    ProcMetricsSnapshot snap;
    snap.name = procs_[i].name;
    snap.committed = stats_[i]->committed.load(std::memory_order_relaxed);
    snap.user_aborts = stats_[i]->user_aborts.load(std::memory_order_relaxed);
    {
      MutexLock lock(stats_[i]->mu);
      snap.latency = stats_[i]->latency;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void ProcedureRegistry::ResetProcMetrics() {
  for (auto& s : stats_) {
    s->committed.store(0, std::memory_order_relaxed);
    s->user_aborts.store(0, std::memory_order_relaxed);
    MutexLock lock(s->mu);
    s->latency.Clear();
  }
}

}  // namespace partdb

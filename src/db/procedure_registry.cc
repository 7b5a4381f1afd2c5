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

}  // namespace partdb

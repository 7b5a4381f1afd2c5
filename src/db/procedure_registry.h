// ProcedureRegistry: the stored-procedure catalog of one Database instance
// (paper §3.1). Each named procedure bundles the client-library routing logic
// (arguments -> participating partitions / communication rounds) and the
// coordinator-side continuation for multi-round procedures (paper §3.3). The
// fragment logic itself lives in the Engine the DbOptions factory builds for
// each partition; the registry carries everything *around* the engine that
// the old Workload interface used to own.
#ifndef PARTDB_DB_PROCEDURE_REGISTRY_H_
#define PARTDB_DB_PROCEDURE_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "client/routing.h"
#include "common/types.h"
#include "coord/txn_continuations.h"
#include "msg/payload.h"
#include "msg/wire.h"

namespace partdb {

/// Decodes one payload from its wire encoding. Returns null (and clears the
/// reader's ok()) on a malformed span.
using PayloadDecoder = std::function<PayloadPtr(WireReader& r)>;

struct ProcedureDescriptor {
  std::string name;

  /// args -> routing. Must be deterministic in the arguments (a retry after a
  /// deadlock abort re-routes identically).
  std::function<TxnRouting(const Payload& args)> route;

  /// Coordinator-side continuation: computes the input of `round` (>= 1)
  /// from the previous round's per-partition results. May be null for
  /// single-round procedures.
  std::function<PayloadPtr(const Payload& args, int round,
                           const std::vector<std::pair<PartitionId, PayloadPtr>>& prev)>
      round_input;

  /// Args codec (serialization is Payload::SerializeTo on the instances
  /// themselves): `make_args` builds a fresh, default-constructed instance
  /// of the argument payload type and `decode_args_into` fills it, returning
  /// false (and marking the reader corrupt) on a malformed span. Set both
  /// (SetArgsCodec) or neither: an embedded-only procedure has no args codec,
  /// and the network tier and command-log recovery refuse it. Every args
  /// decode goes through DecodeArgs below.
  std::function<std::shared_ptr<Payload>()> make_args;
  std::function<bool(WireReader& r, Payload* into)> decode_args_into;

  /// Result deserializer; may be null for embedded-only procedures (a remote
  /// client needs it).
  PayloadDecoder decode_result;

  /// Decoder for coordinator-computed round inputs (multi-round procedures
  /// only). Command-log recovery replays every round from the logged inputs,
  /// so a multi-round procedure without this codec cannot be recovered.
  PayloadDecoder decode_round_input;
};

/// Sets `d`'s args codec for argument type `Args` from a decoder that fills
/// an `Args` instance.
template <typename Args>
void SetArgsCodec(ProcedureDescriptor& d, bool (*decode_into)(WireReader&, Args*)) {
  d.make_args = [] { return std::shared_ptr<Payload>(std::make_shared<Args>()); };
  d.decode_args_into = [decode_into](WireReader& r, Payload* into) {
    return decode_into(r, static_cast<Args*>(into));
  };
}

/// Decodes one invocation's arguments with `desc`'s args codec into a fresh
/// instance. Returns null when `desc` has no args codec, or (reader marked
/// corrupt) on a malformed span. Trailing bytes are the caller's check
/// (`r.AtEnd()`).
PayloadPtr DecodeArgs(const ProcedureDescriptor& desc, WireReader& r);

/// Name -> descriptor table shared by the coordinator and every session of a
/// Database. Sealed before traffic starts (Database::Open registers
/// DbOptions::procedures); afterwards it holds no mutable state, and every
/// lookup is a concurrent lock-free read.
class ProcedureRegistry : public TxnContinuations {
 public:
  /// Registers `desc` and returns its id. Names must be unique and non-empty;
  /// `desc.route` must be set, and the two args-codec hooks both or neither.
  ProcId Register(ProcedureDescriptor desc);

  /// Id for `name`, or kInvalidProc when not registered.
  ProcId Find(std::string_view name) const;

  const ProcedureDescriptor& Get(ProcId id) const;
  size_t size() const { return procs_.size(); }

  // TxnContinuations (called by the coordinator for rounds >= 1):
  PayloadPtr NextRoundInput(ProcId proc, const Payload& args, int round,
                            const std::vector<std::pair<PartitionId, PayloadPtr>>& prev) override;

 private:
  std::vector<ProcedureDescriptor> procs_;
  std::unordered_map<std::string, ProcId> by_name_;
};

}  // namespace partdb

#endif  // PARTDB_DB_PROCEDURE_REGISTRY_H_

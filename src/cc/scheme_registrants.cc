// The one translation unit that knows the concrete scheme types: the paper's
// four schemes and mvcc register themselves here, in the order they appear in
// the paper (registration order is the registry's enumeration order). Adding
// a scheme means adding one Register call here — nothing else in the runtime,
// db, bench, or test layers names scheme types. blocking, speculation, occ and
// mvcc are four fixed policies of one queue executor (cc/speculative.h).
#include "cc/locking.h"
#include "cc/scheme_registry.h"
#include "cc/speculative.h"

namespace partdb {

void RegisterBuiltinSchemes(CcSchemeRegistry& r) {
  using RunBehind = SpeculativeCc::RunBehind;
  using AbortUndoes = SpeculativeCc::AbortUndoes;
  r.Register("blocking", CcSchemeCapabilities{}, [](PartitionExec* part, const SchemeOptions&) {
    return std::make_unique<SpeculativeCc>(part, RunBehind::kNothing, AbortUndoes::kEverything);
  });
  r.Register("speculation", CcSchemeCapabilities{},
             [](PartitionExec* part, const SchemeOptions& options) {
               const auto run_behind = options.local_speculation_only ? RunBehind::kSinglePartition
                                                                      : RunBehind::kEverything;
               return std::make_unique<SpeculativeCc>(part, run_behind, AbortUndoes::kEverything);
             });
  CcSchemeCapabilities locking_caps;
  locking_caps.client_coordinated_2pc = true;
  r.Register("locking", locking_caps, [](PartitionExec* part, const SchemeOptions& options) {
    return std::make_unique<LockingCc>(part, options.force_locks);
  });
  // OCC speculates everything whatever local_speculation_only says.
  r.Register("occ", CcSchemeCapabilities{}, [](PartitionExec* part, const SchemeOptions&) {
    return std::make_unique<SpeculativeCc>(part, RunBehind::kEverything, AbortUndoes::kConflicting);
  });
  // mvcc never speculates: SPs run before a stalled MP, on the committed
  // snapshot where they touch its writes.
  r.Register("mvcc", CcSchemeCapabilities{}, [](PartitionExec* part, const SchemeOptions&) {
    return std::make_unique<SpeculativeCc>(part, RunBehind::kSnapshot, AbortUndoes::kEverything);
  });
}

}  // namespace partdb

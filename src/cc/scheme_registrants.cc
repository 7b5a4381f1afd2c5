// The one translation unit that knows the concrete scheme types: the paper's
// four schemes and mvcc, one table row each, in the order they appear in the
// paper (the registry's enumeration order). Adding a scheme means adding one
// row here — nothing else in the runtime, db, bench, or test layers names
// scheme types. blocking, speculation, occ and mvcc are four fixed policies
// of one queue executor (cc/speculative.h).
#include "cc/locking.h"
#include "cc/scheme_registry.h"
#include "cc/speculative.h"

namespace partdb {
namespace {

using RunBehind = SpeculativeCc::RunBehind;
using AbortUndoes = SpeculativeCc::AbortUndoes;

template <RunBehind kRunBehind, AbortUndoes kAbortUndoes>
std::unique_ptr<CcScheme> Queue(PartitionExec* part, const SchemeOptions&) {
  return std::make_unique<SpeculativeCc>(part, kRunBehind, kAbortUndoes);
}

std::unique_ptr<CcScheme> Speculation(PartitionExec* part, const SchemeOptions& options) {
  const auto run_behind =
      options.local_speculation_only ? RunBehind::kSinglePartition : RunBehind::kEverything;
  return std::make_unique<SpeculativeCc>(part, run_behind, AbortUndoes::kEverything);
}

std::unique_ptr<CcScheme> Locking(PartitionExec* part, const SchemeOptions& options) {
  return std::make_unique<LockingCc>(part, options.force_locks);
}

constexpr CcSchemeRegistry::Entry kBuiltinSchemes[] = {
    {"blocking", {}, Queue<RunBehind::kNothing, AbortUndoes::kEverything>},
    {"speculation", {}, Speculation},
    {"locking", {.client_coordinated_2pc = true}, Locking},
    // OCC speculates everything whatever local_speculation_only says.
    {"occ", {}, Queue<RunBehind::kEverything, AbortUndoes::kConflicting>},
    // mvcc never speculates: SPs run before a stalled MP, on the committed
    // snapshot where they touch its writes.
    {"mvcc", {}, Queue<RunBehind::kSnapshot, AbortUndoes::kEverything>},
};

}  // namespace

const std::span<const CcSchemeRegistry::Entry> CcSchemeRegistry::kEntries = kBuiltinSchemes;

}  // namespace partdb

// String-keyed concurrency-control scheme registry — the one seam through
// which schemes are selected and constructed. A scheme is added by
// registering a name, its capability flags, and a factory in exactly one
// translation unit (src/cc/scheme_registrants.cc holds the built-ins: the
// paper's four plus mvcc); the runtime, db façade, benches, and tests all
// resolve schemes by name through CcSchemeRegistry::Global(). Unknown names
// and duplicate registrations fail loudly with the offending name.
#ifndef PARTDB_CC_SCHEME_REGISTRY_H_
#define PARTDB_CC_SCHEME_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cc/cc_scheme.h"
#include "common/mutex.h"

namespace partdb {

/// Per-scheme construction knobs (paper ablations). Forwarded verbatim to
/// every factory; schemes ignore the knobs that do not apply to them.
struct SchemeOptions {
  /// Restrict speculation to local speculation (§4.2.1): multi-partition
  /// transactions are never speculated (fig. 10 "Local Spec").
  bool local_speculation_only = false;
  /// Disable the locking scheme's no-lock fast path (§5.1 remark).
  bool force_locks = false;
};

/// What the rest of the system needs to know about a scheme beyond its
/// factory. Capabilities replace scheme-identity switches: callers branch on
/// what a scheme *does*, never on which scheme it is.
struct CcSchemeCapabilities {
  /// The client library runs 2PC itself (locking §4.3): sessions send
  /// fragments and collect votes directly, the central coordinator stays
  /// idle, and multi-partition commit order is not globally sequenced (the
  /// replay checker relaxes its cross-partition order assertion).
  bool client_coordinated_2pc = false;
};

using CcSchemeFactory =
    std::function<std::unique_ptr<CcScheme>(PartitionExec*, const SchemeOptions&)>;

class CcSchemeRegistry {
 public:
  struct Entry {
    std::string name;
    CcSchemeCapabilities caps;
    CcSchemeFactory factory;
  };

  /// The process-wide registry, with the built-in schemes already registered
  /// (first use triggers registration, so there is no static-init ordering to
  /// get wrong). Register additional schemes before opening any database.
  static CcSchemeRegistry& Global();

  /// Registers a scheme. CHECK-fails (naming the scheme) on a duplicate name,
  /// an empty name, or a null factory.
  void Register(std::string name, CcSchemeCapabilities caps, CcSchemeFactory factory);

  /// Probing lookup: null when `name` is not registered. The returned entry
  /// stays valid for the registry's lifetime.
  const Entry* Find(std::string_view name) const;

  /// Lookup that CHECK-fails on an unknown name, listing every registered
  /// scheme in the failure message.
  const Entry& Get(std::string_view name) const;

  /// Registered scheme names in registration order (the built-ins enumerate
  /// as blocking, speculation, locking, occ, mvcc).
  std::vector<std::string> Names() const;

  /// Builds a scheme instance for `part`. CHECK-fails on an unknown name.
  std::unique_ptr<CcScheme> Make(std::string_view name, PartitionExec* part,
                                 const SchemeOptions& options = {}) const;

 private:
  mutable Mutex mu_;
  /// Entries are pointer-stable across registrations (Find hands out bare
  /// pointers while later Register calls may grow the vector).
  std::vector<std::unique_ptr<Entry>> entries_ PARTDB_GUARDED_BY(mu_);
};

/// Registers the built-in schemes into `r` (defined in scheme_registrants.cc,
/// the only translation unit that sees the concrete scheme types).
void RegisterBuiltinSchemes(CcSchemeRegistry& r);

}  // namespace partdb

#endif  // PARTDB_CC_SCHEME_REGISTRY_H_

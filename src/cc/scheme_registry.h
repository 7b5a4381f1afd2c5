// String-keyed concurrency-control scheme registry — the one seam through
// which schemes are selected and constructed. The schemes are one constant
// table in src/cc/scheme_registrants.cc (the paper's four plus mvcc): a row
// holds a name, its capability flags and a factory, so adding a scheme is
// adding a row. The runtime, db façade, benches and tests all resolve
// schemes by name through CcSchemeRegistry::Global(). Unknown names fail
// loudly, listing the known ones.
#ifndef PARTDB_CC_SCHEME_REGISTRY_H_
#define PARTDB_CC_SCHEME_REGISTRY_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cc/cc_scheme.h"

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
  /// idle, and multi-partition commit order is not globally sequenced.
  bool client_coordinated_2pc = false;
};

using CcSchemeFactory = std::unique_ptr<CcScheme> (*)(PartitionExec*, const SchemeOptions&);

class CcSchemeRegistry {
 public:
  struct Entry {
    std::string_view name;
    CcSchemeCapabilities caps;
    CcSchemeFactory factory;
  };

  /// The process-wide registry over the built-in table.
  static const CcSchemeRegistry& Global();

  /// Probing lookup: null when `name` is not registered. The returned entry
  /// is part of a constant table and never goes away.
  const Entry* Find(std::string_view name) const;

  /// Lookup that CHECK-fails on an unknown name, listing every registered
  /// scheme in the failure message.
  const Entry& Get(std::string_view name) const;

  /// Scheme names in table order: blocking, speculation, locking, occ, mvcc.
  std::vector<std::string> Names() const;

  /// Builds a scheme instance for `part`. CHECK-fails on an unknown name.
  std::unique_ptr<CcScheme> Make(std::string_view name, PartitionExec* part,
                                 const SchemeOptions& options = {}) const;

 private:
  /// The table (defined in scheme_registrants.cc, the only translation unit
  /// that sees the concrete scheme types).
  static const std::span<const Entry> kEntries;
};

}  // namespace partdb

#endif  // PARTDB_CC_SCHEME_REGISTRY_H_

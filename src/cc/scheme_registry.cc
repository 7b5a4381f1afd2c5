#include "cc/scheme_registry.h"

#include <cstdio>
#include <string>

#include "common/logging.h"

namespace partdb {

const CcSchemeRegistry& CcSchemeRegistry::Global() {
  static const CcSchemeRegistry g;
  return g;
}

const CcSchemeRegistry::Entry* CcSchemeRegistry::Find(std::string_view name) const {
  for (const Entry& e : kEntries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const CcSchemeRegistry::Entry& CcSchemeRegistry::Get(std::string_view name) const {
  const Entry* e = Find(name);
  if (e == nullptr) {
    std::string known;
    for (const Entry& k : kEntries) known += (known.empty() ? "" : ", ") + std::string(k.name);
    std::fprintf(stderr, "unknown CC scheme \"%.*s\" (registered: %s)\n",
                 static_cast<int>(name.size()), name.data(), known.c_str());
    PARTDB_CHECK(false);
  }
  return *e;
}

std::vector<std::string> CcSchemeRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(kEntries.size());
  for (const Entry& e : kEntries) out.emplace_back(e.name);
  return out;
}

std::unique_ptr<CcScheme> CcSchemeRegistry::Make(std::string_view name, PartitionExec* part,
                                                 const SchemeOptions& options) const {
  return Get(name).factory(part, options);
}

}  // namespace partdb

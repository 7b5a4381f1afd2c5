// Registry semantics: name lookup, capability flags, enumeration order,
// loud failure on unknown names, and construction through the one seam
// every harness uses.
#include <memory>
#include <string>
#include <vector>

#include "cc/scheme_registry.h"
#include "fake_partition.h"
#include "gtest/gtest.h"
#include "kv/kv_engine.h"
#include "kv/kv_workload.h"

namespace partdb {
namespace {

std::unique_ptr<KvEngine> MakeEngine(PartitionId pid) {
  auto e = std::make_unique<KvEngine>(pid);
  for (int i = 0; i < 4; ++i) e->store().Put(MicrobenchKey(0, pid, i), EncodeValue(0));
  return e;
}

TEST(SchemeRegistry, BuiltinsEnumerateInRegistrationOrder) {
  const std::vector<std::string> names = CcSchemeRegistry::Global().Names();
  ASSERT_GE(names.size(), 5u);
  // The paper's four schemes first, then the MVCC extension.
  EXPECT_EQ(names[0], "blocking");
  EXPECT_EQ(names[1], "speculation");
  EXPECT_EQ(names[2], "locking");
  EXPECT_EQ(names[3], "occ");
  EXPECT_EQ(names[4], "mvcc");
}

TEST(SchemeRegistry, FindReturnsCapabilities) {
  const CcSchemeRegistry& r = CcSchemeRegistry::Global();
  const auto* locking = r.Find("locking");
  ASSERT_NE(locking, nullptr);
  EXPECT_TRUE(locking->caps.client_coordinated_2pc);

  const auto* mvcc = r.Find("mvcc");
  ASSERT_NE(mvcc, nullptr);
  EXPECT_FALSE(mvcc->caps.client_coordinated_2pc);

  const auto* blocking = r.Find("blocking");
  ASSERT_NE(blocking, nullptr);
  EXPECT_FALSE(blocking->caps.client_coordinated_2pc);
}

TEST(SchemeRegistry, FindUnknownReturnsNull) {
  EXPECT_EQ(CcSchemeRegistry::Global().Find("timestamp-ordering"), nullptr);
  EXPECT_EQ(CcSchemeRegistry::Global().Find(""), nullptr);
}

TEST(SchemeRegistryDeathTest, GetUnknownDiesListingRegisteredSchemes) {
  // The failure names the offending scheme and every registered one, so a
  // typo on a --scheme flag is self-diagnosing.
  EXPECT_DEATH(CcSchemeRegistry::Global().Get("speculative"),
               "unknown CC scheme \"speculative\".*blocking.*speculation.*locking.*occ.*mvcc");
}

TEST(SchemeRegistry, MakeConstructsEveryRegisteredScheme) {
  for (const std::string& name : CcSchemeRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    FakePartition part(0, MakeEngine(0));
    std::unique_ptr<CcScheme> cc = CcSchemeRegistry::Global().Make(name, &part);
    ASSERT_NE(cc, nullptr);
    EXPECT_TRUE(cc->Idle());
  }
}

}  // namespace
}  // namespace partdb

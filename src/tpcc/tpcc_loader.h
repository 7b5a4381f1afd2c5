// TPC-C initial population (spec clause 4.3, scaled) and the spec's random
// primitives (NURand, last-name syllables). Loading is deterministic per
// (scale, seed, partition) so primaries, backups, and replay engines start
// identical. The replicated tables are loaded once per (scale, seed) by
// LoadReplicated and shared; LoadPartition loads a partition's own
// warehouses.
#ifndef PARTDB_TPCC_TPCC_LOADER_H_
#define PARTDB_TPCC_TPCC_LOADER_H_

#include <memory>

#include "common/rng.h"
#include "tpcc/tpcc_db.h"

namespace partdb {
namespace tpcc {

/// Non-uniform random (spec 2.1.6): NURand(A, x, y).
inline int32_t NURand(Rng& rng, int32_t a, int32_t x, int32_t y, int32_t c) {
  const int64_t r1 = static_cast<int64_t>(rng.UniformRange(0, a));
  const int64_t r2 = static_cast<int64_t>(rng.UniformRange(x, y));
  return static_cast<int32_t>((((r1 | r2) + c) % (y - x + 1)) + x);
}

/// Customer last name from the spec's ten syllables (clause 4.3.2.3).
Str16 LastName(int n);

/// Deterministic alpha string of length in [lo, hi].
template <size_t N>
InlineString<N> RandAlpha(Rng& rng, int lo, int hi) {
  const int len = static_cast<int>(rng.UniformRange(lo, std::min<int>(hi, N)));
  char buf[N];
  for (int i = 0; i < len; ++i) buf[i] = static_cast<char>('a' + rng.Uniform(26));
  return InlineString<N>(std::string_view(buf, len));
}

/// Loads the replicated tables: the items and the read-only stock columns of
/// every warehouse, drawn from one stream seeded by `seed`.
std::shared_ptr<const ReplicatedTables> LoadReplicated(const TpccScale& scale, uint64_t seed);

/// Populates the partition-owned warehouses of `db`.
void LoadPartition(TpccDb* db, uint64_t seed);

}  // namespace tpcc
}  // namespace partdb

#endif  // PARTDB_TPCC_TPCC_LOADER_H_

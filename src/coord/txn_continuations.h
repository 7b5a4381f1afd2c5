// TxnContinuations: coordinator-side application code (paper §3.3). For a
// multi-round transaction, computes the input of the next communication round
// from the previous round's per-partition results. Implemented by the db
// layer's ProcedureRegistry (dispatching on the procedure id).
#ifndef PARTDB_COORD_TXN_CONTINUATIONS_H_
#define PARTDB_COORD_TXN_CONTINUATIONS_H_

#include <utility>
#include <vector>

#include "common/types.h"
#include "msg/payload.h"

namespace partdb {

class TxnContinuations {
 public:
  virtual ~TxnContinuations() = default;

  /// Computes the input for `round` (>= 1) of procedure `proc` from the
  /// previous round's per-partition results.
  virtual PayloadPtr NextRoundInput(
      ProcId proc, const Payload& args, int round,
      const std::vector<std::pair<PartitionId, PayloadPtr>>& prev) = 0;
};

}  // namespace partdb

#endif  // PARTDB_COORD_TXN_CONTINUATIONS_H_

// Client-library routing facts (paper §3.1): which partitions a transaction
// touches, how many communication rounds it needs, and whether it may
// user-abort (and therefore needs undo on the no-speculation fast paths).
// Routers registered in a ProcedureRegistry derive a TxnRouting from a
// procedure's arguments; the SessionActor client library executes it.
#ifndef PARTDB_CLIENT_ROUTING_H_
#define PARTDB_CLIENT_ROUTING_H_

#include <vector>

#include "common/types.h"

namespace partdb {

/// Routing facts the client library derives from a transaction's arguments
/// (paper §3.1). Must be deterministic in the arguments: a retry after a
/// deadlock abort re-routes identically.
struct TxnRouting {
  PartitionList participants;
  int rounds = 1;
  bool can_abort = false;

  bool single_partition() const { return participants.size() == 1 && rounds == 1; }
};

/// Node addressing for one database instance.
struct Topology {
  std::vector<NodeId> partition_primary;  // indexed by PartitionId
  NodeId coordinator = kInvalidNode;
  /// Group commit: a committed multi-partition transaction's reply waits for
  /// a DurableNotice from every participant.
  bool durable_notices = false;
};

}  // namespace partdb

#endif  // PARTDB_CLIENT_ROUTING_H_

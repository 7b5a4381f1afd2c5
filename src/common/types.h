// Core scalar types and identifiers shared across the library.
#ifndef PARTDB_COMMON_TYPES_H_
#define PARTDB_COMMON_TYPES_H_

#include <cstdint>

namespace partdb {

/// Virtual time, in nanoseconds since simulation start.
using Time = int64_t;

/// Duration, in nanoseconds.
using Duration = int64_t;

constexpr Duration kMicrosecond = 1000;
constexpr Duration kMillisecond = 1000 * kMicrosecond;
constexpr Duration kSecond = 1000 * kMillisecond;

/// Converts a duration in (possibly fractional) microseconds to nanoseconds.
constexpr Duration Micros(double us) { return static_cast<Duration>(us * 1000.0); }

/// Converts nanoseconds to seconds as a double.
constexpr double ToSeconds(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// Identifies one data partition (0-based).
using PartitionId = int32_t;

/// Identifies one simulated process (client, coordinator, partition primary or
/// backup). Assigned when Database::Open wires the actors.
using NodeId = int32_t;

constexpr NodeId kInvalidNode = -1;

/// Identifies one registered stored procedure within a database instance.
using ProcId = int32_t;

constexpr ProcId kInvalidProc = -1;

/// Globally unique transaction identifier: (client id << 32) | client-local
/// sequence number. Assigned by the issuing client.
using TxnId = uint64_t;

constexpr TxnId kInvalidTxn = ~0ull;

inline constexpr TxnId MakeTxnId(int32_t client, uint32_t seq) {
  return (static_cast<TxnId>(static_cast<uint32_t>(client)) << 32) | seq;
}
inline constexpr int32_t TxnClient(TxnId id) { return static_cast<int32_t>(id >> 32); }
inline constexpr uint32_t TxnSeq(TxnId id) { return static_cast<uint32_t>(id); }

}  // namespace partdb

#endif  // PARTDB_COMMON_TYPES_H_

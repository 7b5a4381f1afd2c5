// Simulated switched network: point-to-point FIFO links with a fixed one-way
// latency plus a bandwidth term. Models the paper's gigabit Ethernet setup
// (measured ping RTT ~40us => one-way ~20us).
#ifndef PARTDB_SIM_NETWORK_H_
#define PARTDB_SIM_NETWORK_H_

#include <cstdint>
#include <unordered_map>

#include "common/types.h"
#include "msg/message.h"

namespace partdb {

struct NetworkConfig {
  /// Effective application-to-application one-way latency. The paper's 40us
  /// is the ICMP ping RTT; the effective stall its Table 2 implies
  /// (tmpN = tmp - tmpC = 156us) corresponds to kernel+TCP+app overheads on
  /// 2010-era hardware, which this default approximates.
  Duration one_way_latency = Micros(40);
  double ns_per_byte = 8.0;  // 1 Gbit/s
  /// Messages a node sends to itself skip the network entirely.
  bool loopback_free = true;
};

struct NetworkStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

/// The link model only: it computes when a message arrives. SimContext owns
/// the endpoints and schedules the delivery.
class Network {
 public:
  explicit Network(NetworkConfig config) : config_(config) {}

  /// Returns the time at which `msg`, departing at `depart` (>= now),
  /// arrives at msg.dst, and counts it in stats(). Preserves per-link FIFO
  /// order: a message never arrives before one sent earlier on its link.
  Time Arrival(const Message& msg, Time depart);

  const NetworkStats& stats() const { return stats_; }

 private:
  NetworkConfig config_;
  std::unordered_map<uint64_t, Time> link_last_delivery_;
  NetworkStats stats_;
};

}  // namespace partdb

#endif  // PARTDB_SIM_NETWORK_H_

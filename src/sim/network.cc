#include "sim/network.h"

namespace partdb {

Time Network::Arrival(const Message& msg, Time depart) {
  stats_.messages++;
  const size_t bytes = MessageByteSize(msg.body);
  stats_.bytes += bytes;

  if (msg.src == msg.dst) return depart;

  const Duration wire = config_.one_way_latency +
                        static_cast<Duration>(config_.ns_per_byte * static_cast<double>(bytes));
  Time arrive = depart + wire;
  // FIFO per directed link, like a TCP connection.
  const uint64_t link = (static_cast<uint64_t>(static_cast<uint32_t>(msg.src)) << 32) |
                        static_cast<uint32_t>(msg.dst);
  auto [it, inserted] = link_last_delivery_.try_emplace(link, arrive);
  if (!inserted) {
    if (arrive < it->second) arrive = it->second;
    it->second = arrive;
  }
  return arrive;
}

}  // namespace partdb

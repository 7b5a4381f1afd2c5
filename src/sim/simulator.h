// Deterministic discrete-event simulator. All processes in the cluster
// (partitions, coordinator, clients, backups) run as actors scheduled on a
// single virtual clock; ties are broken by insertion sequence so runs are
// bit-for-bit reproducible.
#ifndef PARTDB_SIM_SIMULATOR_H_
#define PARTDB_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.h"

namespace partdb {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time (time of the event being processed, or of the last
  /// processed event between dispatches).
  Time Now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `at` (>= Now()).
  void Schedule(Time at, std::function<void()> fn);

  /// Runs events until the queue is empty.
  void Run();

  /// Runs events with timestamp <= `until`; afterwards Now() == until.
  void RunUntil(Time until);

  /// Runs the single earliest event. Returns false (and leaves Now()
  /// unchanged) when the queue is empty. Lets an embedding driver pump the
  /// simulation to a condition of its own (e.g. Session::Execute).
  bool RunOne();

  /// Number of events processed so far.
  uint64_t events_processed() const { return events_processed_; }

  bool empty() const { return queue_.empty(); }

 private:
  struct Event {
    Time at;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Time now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
};

}  // namespace partdb

#endif  // PARTDB_SIM_SIMULATOR_H_

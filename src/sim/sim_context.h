// SimContext: the discrete-event ExecutionContext. Time is the simulator's
// virtual clock and messages travel over the modeled Network. Each actor is
// a process with one CPU: a message that arrives while the actor's last
// handler is still using the CPU time it charged waits in the actor's inbox
// here, and the next handler starts when that time has elapsed. Runs are
// bit-for-bit deterministic for a given seed.
#ifndef PARTDB_SIM_SIM_CONTEXT_H_
#define PARTDB_SIM_SIM_CONTEXT_H_

#include <deque>
#include <vector>

#include "runtime/execution_context.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace partdb {

class SimContext : public ExecutionContext {
 public:
  SimContext(Simulator* sim, Network* net) : sim_(sim), net_(net) {}
  SimContext(const SimContext&) = delete;  // scheduled events hold `this`
  SimContext& operator=(const SimContext&) = delete;

  Time Now() const override { return sim_->Now(); }
  void Send(Message msg, Time depart) override;
  void Register(NodeId node, Actor* actor) override;
  void SetTimer(NodeId self, Time at, TimerFire t) override;

  /// Hands `msg` to msg.dst now: its handler runs at once when the actor's
  /// CPU is free, otherwise after the messages already waiting for it.
  void Deliver(Message msg);

 private:
  struct Endpoint {
    Actor* actor = nullptr;
    std::deque<Message> inbox;
    bool busy = false;  // a handler's charged CPU time has not yet elapsed
  };

  Endpoint& endpoint(NodeId node);
  /// Runs the inbox head of `node` at `at` and schedules the moment its CPU
  /// frees up.
  void StartNext(NodeId node, Time at);

  Simulator* sim_;
  Network* net_;
  std::vector<Endpoint> endpoints_;  // by NodeId
};

}  // namespace partdb

#endif  // PARTDB_SIM_SIM_CONTEXT_H_

// ExecutionContext: the services actors consume — clock, message transport
// and timers — decoupled from any concrete runtime. Two implementations
// exist: SimContext (deterministic discrete-event simulation on one virtual
// clock) and ParallelRuntime (thread-per-partition workers on wall-clock
// time). The same actor and CcScheme code runs on both.
#ifndef PARTDB_RUNTIME_EXECUTION_CONTEXT_H_
#define PARTDB_RUNTIME_EXECUTION_CONTEXT_H_

#include "common/types.h"
#include "msg/message.h"

namespace partdb {

class Actor;

class ExecutionContext {
 public:
  virtual ~ExecutionContext() = default;

  /// Current time in nanoseconds: virtual in simulation, wall-clock (since
  /// runtime start) in parallel execution.
  virtual Time Now() const = 0;

  /// Sends msg.body from msg.src to msg.dst, departing at `depart`. Delivery
  /// preserves per-(src,dst) FIFO order. The simulated transport models
  /// latency/bandwidth; the parallel transport ignores `depart`, and a send
  /// from one of its own workers leaves with that worker's batch
  /// (ParallelRuntime::Send).
  virtual void Send(Message msg, Time depart) = 0;

  /// Registers `actor` as the endpoint for node `id`. Must be called before
  /// any traffic to that node (Actor::Bind does this).
  virtual void Register(NodeId node, Actor* actor) = 0;

  /// Delivers TimerFire `t` to node `self` at absolute time `at`, bypassing
  /// the network. Only `self`'s own handlers may call it, on the thread that
  /// runs them (its owning worker, or the simulator's pump): a submission
  /// from elsewhere travels as a message instead.
  virtual void SetTimer(NodeId self, Time at, TimerFire t) = 0;
};

}  // namespace partdb

#endif  // PARTDB_RUNTIME_EXECUTION_CONTEXT_H_

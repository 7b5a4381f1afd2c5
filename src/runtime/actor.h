// Actor: a single-threaded process with one CPU. The runtime hands it one
// message at a time; the handler charges CPU time, and outbound messages
// depart at the instant they were produced. Actors are runtime-agnostic: the
// bound ExecutionContext decides whether time is virtual (discrete-event
// simulation, which also holds each message until the CPU time charged by
// the previous handler has elapsed) or wall-clock (thread-per-partition
// parallel execution, where a drained message runs at once).
#ifndef PARTDB_RUNTIME_ACTOR_H_
#define PARTDB_RUNTIME_ACTOR_H_

#include <string>

#include "common/types.h"
#include "msg/message.h"
#include "runtime/execution_context.h"

namespace partdb {

class Actor;

/// Handler-side services: CPU charging, sending, timers. Valid only for the
/// duration of one OnMessage call.
class ActorContext {
 public:
  ActorContext(Actor* actor, Time start) : actor_(actor), start_(start) {}

  /// Time at which the currently-charged work completes.
  Time now() const { return start_ + charged_; }
  Time start() const { return start_; }

  /// Accrues CPU time; later Sends depart after this work.
  void Charge(Duration d) { charged_ += d; }
  Duration charged() const { return charged_; }

  /// Sends a message departing at now() (start + charged so far).
  void Send(NodeId dst, MessageBody body);

  /// Delivers a TimerFire to this actor `after` ns from now() (no network).
  void SetTimer(Duration after, TimerFire t);

 private:
  Actor* actor_;
  Time start_;
  Duration charged_ = 0;
};

class Actor {
 public:
  explicit Actor(std::string name) : name_(std::move(name)) {}
  virtual ~Actor() = default;
  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  /// Attaches the actor to an execution context. Must be called before any
  /// traffic.
  void Bind(ExecutionContext* exec, NodeId id) {
    exec_ = exec;
    node_ = id;
    exec->Register(id, this);
  }

  NodeId node_id() const { return node_; }
  const std::string& name() const { return name_; }
  ExecutionContext* exec() const { return exec_; }

  /// Runtime entry point: runs the handler for `msg` starting at `start`,
  /// accrues the CPU time it charged into busy_ns() and returns it. Must only
  /// be called by the thread that owns this actor (the simulator's event
  /// loop, or the actor's worker thread in parallel execution), one message
  /// at a time.
  Duration Handle(Message& msg, Time start);

  /// Called by the parallel runtime on the owning worker when its mailbox
  /// has drained, right before the worker would spin and then park. It must
  /// not send: the worker has already flushed its outbox, so a send would
  /// wait there through the park. Default: nothing.
  virtual void OnIdle() {}

  /// Total CPU time consumed (for utilization reporting).
  Duration busy_ns() const { return busy_ns_; }
  void ResetBusy() { busy_ns_ = 0; }

 protected:
  /// Processes one message. Implementations charge CPU and send replies via
  /// `ctx`. Runs exactly once per delivered message, in delivery order.
  virtual void OnMessage(Message& msg, ActorContext& ctx) = 0;

 private:
  std::string name_;
  ExecutionContext* exec_ = nullptr;
  NodeId node_ = kInvalidNode;
  Duration busy_ns_ = 0;
};

}  // namespace partdb

#endif  // PARTDB_RUNTIME_ACTOR_H_

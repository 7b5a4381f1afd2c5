#include "sim/sim_context.h"

#include "common/logging.h"
#include "runtime/actor.h"

namespace partdb {

SimContext::Endpoint& SimContext::endpoint(NodeId node) {
  PARTDB_CHECK(node >= 0 && static_cast<size_t>(node) < endpoints_.size());
  Endpoint& e = endpoints_[node];
  PARTDB_CHECK(e.actor != nullptr);
  return e;
}

void SimContext::Register(NodeId node, Actor* actor) {
  PARTDB_CHECK_GE(node, 0);
  if (static_cast<size_t>(node) >= endpoints_.size()) endpoints_.resize(node + 1);
  PARTDB_CHECK(endpoints_[node].actor == nullptr);
  endpoints_[node].actor = actor;
}

void SimContext::Send(Message msg, Time depart) {
  endpoint(msg.dst);  // must be registered
  const Time arrive = net_->Arrival(msg, depart);
  sim_->Schedule(arrive, [this, m = std::move(msg)]() mutable { Deliver(std::move(m)); });
}

void SimContext::SetTimer(NodeId self, Time at, TimerFire t) {
  endpoint(self);  // must be registered
  sim_->Schedule(at, [this, self, t]() {
    Message m;
    m.src = self;
    m.dst = self;
    m.body = t;
    Deliver(std::move(m));
  });
}

void SimContext::Deliver(Message msg) {
  const NodeId node = msg.dst;
  Endpoint& e = endpoint(node);
  e.inbox.push_back(std::move(msg));
  if (!e.busy) StartNext(node, sim_->Now());
}

void SimContext::StartNext(NodeId node, Time at) {
  Endpoint& e = endpoints_[node];
  e.busy = true;
  Message msg = std::move(e.inbox.front());
  e.inbox.pop_front();
  const Time done = at + e.actor->Handle(msg, at);
  sim_->Schedule(done, [this, node, done]() {
    endpoints_[node].busy = false;
    if (!endpoints_[node].inbox.empty()) StartNext(node, done);
  });
}

}  // namespace partdb

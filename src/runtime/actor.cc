#include "runtime/actor.h"

namespace partdb {

void ActorContext::Send(NodeId dst, MessageBody body) {
  Message m;
  m.src = actor_->node_id();
  m.dst = dst;
  m.body = std::move(body);
  actor_->exec()->Send(std::move(m), now());
}

void ActorContext::SetTimer(Duration after, TimerFire t) {
  actor_->exec()->SetTimer(actor_->node_id(), now() + after, t);
}

Duration Actor::Handle(Message& msg, Time start) {
  ActorContext ctx(this, start);
  OnMessage(msg, ctx);
  busy_ns_ += ctx.charged();
  return ctx.charged();
}

}  // namespace partdb

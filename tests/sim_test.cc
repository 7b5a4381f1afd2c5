// Tests for the discrete-event simulator, network model, and actor CPU
// accounting.
#include <vector>

#include "gtest/gtest.h"
#include "runtime/actor.h"
#include "sim/network.h"
#include "sim/sim_context.h"
#include "sim/simulator.h"

namespace partdb {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(10, [&] { order.push_back(2); });
  sim.Schedule(10, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(5, [&] {
    fired++;
    sim.Schedule(15, [&] { fired++; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 15);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { fired++; });
  sim.Schedule(20, [&] { fired++; });
  sim.RunUntil(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 15);
  sim.RunUntil(25);
  EXPECT_EQ(fired, 2);
}

// Actor that records arrival times and charges a fixed CPU cost per message.
class RecordingActor : public Actor {
 public:
  RecordingActor(std::string name, Duration cost) : Actor(std::move(name)), cost_(cost) {}
  std::vector<Time> starts;
  std::vector<TxnId> ids;

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override {
    starts.push_back(ctx.start());
    if (auto* t = std::get_if<TimerFire>(&msg.body)) ids.push_back(t->txn_id);
    ctx.Charge(cost_);
  }

 private:
  Duration cost_;
};

Message TimerMsg(NodeId src, NodeId dst, TxnId id) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.body = TimerFire{id, 0};
  return m;
}

TEST(Network, DeliversWithLatency) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.one_way_latency = Micros(20);
  cfg.ns_per_byte = 0;
  Network net(cfg);
  SimContext exec(&sim, &net);
  RecordingActor a("a", 0), b("b", 0);
  a.Bind(&exec, 0);
  b.Bind(&exec, 1);

  exec.Send(TimerMsg(0, 1, 7), /*depart=*/0);
  sim.Run();
  ASSERT_EQ(b.starts.size(), 1u);
  EXPECT_EQ(b.starts[0], Micros(20));
}

TEST(Network, PerLinkFifoEvenWithEqualDeparture) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.one_way_latency = Micros(10);
  cfg.ns_per_byte = 0;
  Network net(cfg);
  SimContext exec(&sim, &net);
  RecordingActor a("a", 0), b("b", 0);
  a.Bind(&exec, 0);
  b.Bind(&exec, 1);

  exec.Send(TimerMsg(0, 1, 1), 0);
  exec.Send(TimerMsg(0, 1, 2), 0);
  exec.Send(TimerMsg(0, 1, 3), 0);
  sim.Run();
  EXPECT_EQ(b.ids, (std::vector<TxnId>{1, 2, 3}));
}

TEST(Network, BandwidthDelaysLargeMessages) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.one_way_latency = 0;
  cfg.ns_per_byte = 8.0;  // 1 Gbit/s
  Network net(cfg);
  SimContext exec(&sim, &net);
  RecordingActor a("a", 0), b("b", 0);
  a.Bind(&exec, 0);
  b.Bind(&exec, 1);

  exec.Send(TimerMsg(0, 1, 1), 0);  // TimerFire serializes to the 24-byte header
  sim.Run();
  ASSERT_EQ(b.starts.size(), 1u);
  EXPECT_EQ(b.starts[0], 24 * 8);
}

TEST(Actor, BusyCpuSerializesMessages) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.one_way_latency = 0;
  cfg.ns_per_byte = 0;
  Network net(cfg);
  SimContext exec(&sim, &net);
  RecordingActor a("a", 0);
  RecordingActor b("b", Micros(50));
  a.Bind(&exec, 0);
  b.Bind(&exec, 1);

  exec.Send(TimerMsg(0, 1, 1), 0);
  exec.Send(TimerMsg(0, 1, 2), 0);
  exec.Send(TimerMsg(0, 1, 3), 0);
  sim.Run();
  ASSERT_EQ(b.starts.size(), 3u);
  EXPECT_EQ(b.starts[0], 0);
  EXPECT_EQ(b.starts[1], Micros(50));   // waited for CPU
  EXPECT_EQ(b.starts[2], Micros(100));
  EXPECT_EQ(b.busy_ns(), Micros(150));
}

// An actor that replies immediately; used to check Send departure stamping.
class EchoActor : public Actor {
 public:
  EchoActor(std::string name, Duration pre, Duration post)
      : Actor(std::move(name)), pre_(pre), post_(post) {}

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override {
    ctx.Charge(pre_);
    ctx.Send(msg.src, TimerFire{99, 0});
    ctx.Charge(post_);
  }

 private:
  Duration pre_, post_;
};

TEST(Actor, SendDepartsAfterChargedWork) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.one_way_latency = Micros(5);
  cfg.ns_per_byte = 0;
  Network net(cfg);
  SimContext exec(&sim, &net);
  RecordingActor a("a", 0);
  EchoActor b("b", Micros(30), Micros(100));
  a.Bind(&exec, 0);
  b.Bind(&exec, 1);

  exec.Send(TimerMsg(0, 1, 1), 0);
  sim.Run();
  ASSERT_EQ(a.starts.size(), 1u);
  // 5us flight + 30us pre-charge + 5us flight back; the 100us post-charge
  // does not delay the reply.
  EXPECT_EQ(a.starts[0], Micros(40));
}

TEST(Actor, TimerFiresAfterDelay) {
  Simulator sim;
  NetworkConfig cfg;
  Network net(cfg);
  SimContext exec(&sim, &net);

  class TimerActor : public Actor {
   public:
    using Actor::Actor;
    std::vector<Time> fires;

   protected:
    void OnMessage(Message& msg, ActorContext& ctx) override {
      auto& t = std::get<TimerFire>(msg.body);
      if (t.txn_id == 0) {
        ctx.SetTimer(Micros(70), TimerFire{1, 0});
      } else {
        fires.push_back(ctx.start());
      }
    }
  };

  TimerActor a("a");
  a.Bind(&exec, 0);
  Message m;
  m.src = 0;
  m.dst = 0;
  m.body = TimerFire{0, 0};
  exec.Deliver(std::move(m));
  sim.Run();
  ASSERT_EQ(a.fires.size(), 1u);
  EXPECT_EQ(a.fires[0], Micros(70));
}

}  // namespace
}  // namespace partdb

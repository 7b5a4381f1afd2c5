// Parallel-mode message delivery allocates nothing at steady state: a message
// goes from the sender's mailbox node straight to the receiver's handler.
// This executable replaces the global operator new with a counting one, so
// the test sees every heap allocation any thread makes while it counts. A
// ping-pong between two workers also takes few eventfd wakes: each worker
// yield-spins before it parks, so a reply that comes back inside the spin
// needs no notify, on many CPUs or on one.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>

#include "counting_new.h"
#include "gtest/gtest.h"
#include "one_cpu_scope.h"
#include "runtime/actor.h"
#include "runtime/parallel_runtime.h"

namespace partdb {
namespace {

constexpr uint64_t kWarmupHops = 20000;
constexpr uint64_t kCountedHops = 100000;

// Bounces DecisionMessages with its peer: txn_id is the hop count, attempt
// the ball. Two balls grow every mailbox's vectors past the depth one ball
// needs; ball 1 then retires and ball 0 bounces alone through the counted
// hops.
class Bouncer : public Actor {
 public:
  Bouncer(std::string name, NodeId peer, std::atomic<bool>* done)
      : Actor(std::move(name)), peer_(peer), done_(done) {}

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override {
    const auto& d = std::get<DecisionMessage>(msg.body);
    const uint64_t hop = d.txn_id;
    if (d.attempt == 1) {
      if (hop < kWarmupHops / 2) ctx.Send(peer_, DecisionMessage{hop + 1, 1, true});
      return;
    }
    if (hop == kWarmupHops) g_counting.store(true, std::memory_order_relaxed);
    if (hop == kWarmupHops + kCountedHops) {
      g_counting.store(false, std::memory_order_relaxed);
      done_->store(true, std::memory_order_release);
      return;
    }
    ctx.Send(peer_, DecisionMessage{hop + 1, 0, true});
  }

 private:
  NodeId peer_;
  std::atomic<bool>* done_;
};

TEST(ParallelDelivery, BounceAllocatesNothing) {
  std::atomic<bool> done{false};
  ParallelRuntime rt(2);
  rt.MapNode(0, 0);
  rt.MapNode(1, 1);
  Bouncer a("a", 1, &done);
  Bouncer b("b", 0, &done);
  a.Bind(&rt, 0);
  b.Bind(&rt, 1);
  rt.Start();
  for (uint32_t ball : {0u, 1u}) {
    Message m;
    m.src = 1;
    m.dst = 0;
    m.body = DecisionMessage{0, ball, true};
    rt.Send(std::move(m), 0);
  }

  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!done.load(std::memory_order_acquire) && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(done.load()) << "bounce did not finish";
  ASSERT_TRUE(rt.WaitQuiescent(std::chrono::seconds(30)));
  rt.Stop();
  EXPECT_EQ(g_allocations.load(), 0u) << "heap allocations during " << kCountedHops
                                      << " delivered messages";
}

// The two-ball bounce on a fresh two-worker runtime. Returns the runtime's
// mailbox counters, or nullopt when the bounce did not finish.
std::optional<ParallelRuntime::Stats> RunBounce() {
  std::atomic<bool> done{false};
  ParallelRuntime rt(2);
  rt.MapNode(0, 0);
  rt.MapNode(1, 1);
  Bouncer a("a", 1, &done);
  Bouncer b("b", 0, &done);
  a.Bind(&rt, 0);
  b.Bind(&rt, 1);
  rt.Start();
  for (uint32_t ball : {0u, 1u}) {
    Message m;
    m.src = 1;
    m.dst = 0;
    m.body = DecisionMessage{0, ball, true};
    rt.Send(std::move(m), 0);
  }
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!done.load(std::memory_order_acquire) && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool finished = done.load() && rt.WaitQuiescent(std::chrono::seconds(30));
  rt.Stop();  // before the actors go out of scope
  if (!finished) return std::nullopt;
  return rt.GetStats();
}

// Each hop empties the sender's mailbox, so without the pre-park spin every
// hop would park a worker and the next hop would wake it. With the spin the
// reply usually lands before the park. On one CPU that holds only because
// the spinner yields: a spinner that kept the CPU would park before its peer
// ever ran, and every hop would wake it again.
TEST(ParallelDelivery, PingPongTakesFewWakes) {
  constexpr uint64_t kHops = kWarmupHops + kCountedHops;
  {
    const std::optional<ParallelRuntime::Stats> s = RunBounce();
    ASSERT_TRUE(s.has_value()) << "unpinned bounce did not finish";
    EXPECT_LT(s->mailbox_wakes, kHops / 2) << "unpinned, parks=" << s->mailbox_parks;
  }
  {
    OneCpuScope one_cpu;
    ASSERT_TRUE(one_cpu.pinned()) << "cannot pin the test thread";
    const std::optional<ParallelRuntime::Stats> s = RunBounce();
    ASSERT_TRUE(s.has_value()) << "one-CPU bounce did not finish";
    EXPECT_LT(s->mailbox_wakes, kHops / 2) << "one CPU, parks=" << s->mailbox_parks;
  }
}

}  // namespace
}  // namespace partdb

// Mailbox tests beyond the basic ordering suite in runtime_test: the
// high-producer-count stress (run under TSan in CI — per-sender FIFO while
// the consumer swaps batches out from under concurrent producers), a sink
// that pushes to its own mailbox, and the park/wake discipline (producers
// signal only on an empty->nonempty edge that finds the consumer parked;
// steady-state traffic never notifies; a bulk push is one lock and at most
// one wake; the consumer yield-spins before it parks, never past its drain
// deadline).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include "common/inbox.h"
#include "gtest/gtest.h"
#include "runtime/mailbox.h"

namespace partdb {
namespace {

using Clock = std::chrono::steady_clock;

Message MakeItem(int src, uint32_t seq) {
  Message m;
  m.src = src;
  m.dst = 0;
  m.body = TimerFire{MakeTxnId(src, seq), 0};
  return m;
}

// Eight producers, 100k items each, consumer draining concurrently the whole
// time: per-sender FIFO must hold and every item must arrive exactly once.
// Run twice so the second wave reuses the vectors the first one grew.
TEST(MailboxStress, EightProducersHundredThousandEach) {
  constexpr int kProducers = 8;
  constexpr uint32_t kPerProducer = 100000;
  Mailbox box;

  for (int wave = 0; wave < 2; ++wave) {
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int src = 0; src < kProducers; ++src) {
      producers.emplace_back([&box, src]() {
        for (uint32_t seq = 0; seq < kPerProducer; ++seq) {
          box.PushMessage(MakeItem(src, seq));
        }
      });
    }

    std::vector<uint32_t> next(kProducers, 0);
    uint64_t received = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    while (received < static_cast<uint64_t>(kProducers) * kPerProducer) {
      const size_t got = box.DrainUntil(deadline, 256, [&](MailboxNode* n) {
        ASSERT_EQ(n->kind, MailboxNode::Kind::kMessage);
        const auto& t = std::get<TimerFire>(n->msg.body);
        const int src = TxnClient(t.txn_id);
        const uint32_t seq = TxnSeq(t.txn_id);
        ASSERT_EQ(seq, next[src]) << "out-of-order from producer " << src;
        next[src] = seq + 1;
        ++received;
      });
      ASSERT_GT(got, 0u) << "stalled after " << received << " items in wave " << wave;
    }
    for (auto& p : producers) p.join();
    for (int src = 0; src < kProducers; ++src) EXPECT_EQ(next[src], kPerProducer);
    EXPECT_TRUE(box.Empty());
  }

  const Mailbox::Stats s = box.stats();
  EXPECT_EQ(s.pushed, 2ull * kProducers * kPerProducer);
  EXPECT_EQ(s.popped, s.pushed);
}

// A sink may push to the mailbox it is draining, as handlers do (self-sends).
// For N items the sink pushes the next message of its chain and a second,
// leaf message; the node it was handed must stay readable after those
// pushes (under ASan this catches a drain whose storage the producers append
// to), and every item must arrive exactly once, in push order.
TEST(Mailbox, SinkPushesToItsOwnMailbox) {
  constexpr uint32_t kItems = 2000;
  constexpr int kChain = 0;  // source of the chain's messages
  constexpr int kLeaf = 1;   // source of the second message each pushes
  Mailbox box;
  std::deque<std::pair<int, uint32_t>> expected;  // (src, seq)
  box.PushMessage(MakeItem(kChain, 0));
  expected.emplace_back(kChain, 0);

  uint64_t received = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (!expected.empty()) {
    const size_t got = box.DrainUntil(deadline, 7, [&](MailboxNode* n) {
      ASSERT_FALSE(expected.empty()) << "unexpected extra item";
      const auto [src, seq] = expected.front();
      expected.pop_front();
      ASSERT_EQ(n->kind, MailboxNode::Kind::kMessage) << "item " << received;
      ASSERT_EQ(n->msg.src, src) << "item " << received;
      ASSERT_EQ(TxnSeq(std::get<TimerFire>(n->msg.body).txn_id), seq);
      if (src == kChain) {
        if (seq + 1 < kItems) {
          box.PushMessage(MakeItem(kChain, seq + 1));
          expected.emplace_back(kChain, seq + 1);
          box.PushMessage(MakeItem(kLeaf, seq));
          expected.emplace_back(kLeaf, seq);
        }
        // Still the node this call was handed.
        ASSERT_EQ(n->kind, MailboxNode::Kind::kMessage);
        EXPECT_EQ(n->msg.src, kChain);
        EXPECT_EQ(TxnSeq(std::get<TimerFire>(n->msg.body).txn_id), seq);
      }
      ++received;
    });
    ASSERT_GT(got, 0u) << "stalled after " << received << " items";
  }
  EXPECT_EQ(received, 2ull * kItems - 1);
  EXPECT_TRUE(box.Empty());
  EXPECT_EQ(box.pushed(), box.popped());
  EXPECT_EQ(box.DrainUntil(Clock::now() + std::chrono::milliseconds(2), 64,
                           [&](MailboxNode*) { ++received; }),
            0u);
}

// The wake discipline, deterministically:
//  1. pushes while the consumer is running (not parked) never notify;
//  2. a parked consumer costs exactly one wake to restart, regardless of how
//     many items follow the edge push.
TEST(Mailbox, WakesOnlyOnEmptyToNonEmptyEdgeWhileParked) {
  constexpr uint32_t kBurst = 100;
  Mailbox box;

  // Phase 1: burst into an unparked mailbox. No consumer is blocked, so no
  // push may write the eventfd.
  for (uint32_t i = 0; i < kBurst; ++i) box.PushMessage(MakeItem(0, i));
  EXPECT_EQ(box.stats().wakes, 0u);

  uint64_t received = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (received < kBurst) {
    ASSERT_GT(box.DrainUntil(deadline, 256, [&](MailboxNode*) { ++received; }), 0u);
  }
  // The queue was nonempty throughout: the consumer never parked either.
  EXPECT_EQ(box.stats().parks, 0u);

  // Phase 2: park the consumer for real, then deliver one item. The restart
  // must cost exactly one park and one wake.
  uint64_t parked_received = 0;
  std::thread consumer([&box, &parked_received]() {
    const auto d = Clock::now() + std::chrono::seconds(30);
    EXPECT_EQ(box.DrainUntil(d, 16, [&](MailboxNode*) { ++parked_received; }), 1u);
  });
  // consumer_waiting() flips just before the park counter; wait for both so
  // the push below deterministically lands on a fully parked consumer.
  while (!box.consumer_waiting() || box.stats().parks == 0) std::this_thread::yield();
  EXPECT_EQ(box.stats().parks, 1u);
  box.PushMessage(MakeItem(0, kBurst));
  consumer.join();
  EXPECT_EQ(parked_received, 1u);
  EXPECT_EQ(box.stats().wakes, 1u);

  // Phase 3: more pushes with nobody parked stay silent.
  for (uint32_t i = 0; i < kBurst; ++i) box.PushMessage(MakeItem(1, i));
  EXPECT_EQ(box.stats().wakes, 1u);
  received = 0;
  while (received < kBurst) {
    ASSERT_GT(box.DrainUntil(deadline, 256, [&](MailboxNode*) { ++received; }), 0u);
  }
  EXPECT_TRUE(box.Empty());
}

// A bulk push is one producer lock acquisition: 50 messages pushed into a
// parked consumer cost one wake and one push batch, drain in push order, and
// the caller's vector comes back empty with its capacity kept for the next
// batch.
TEST(Mailbox, PushMessagesKeepsOrderAndWakesOnce) {
  constexpr uint32_t kMessages = 50;
  Mailbox box;
  std::vector<uint32_t> seqs;
  std::thread consumer([&box, &seqs]() {
    const auto d = Clock::now() + std::chrono::seconds(30);
    while (seqs.size() < kMessages) {
      ASSERT_GT(box.DrainUntil(d, 256,
                               [&](MailboxNode* n) {
                                 seqs.push_back(TxnSeq(std::get<TimerFire>(n->msg.body).txn_id));
                               }),
                0u);
    }
  });
  while (!box.consumer_waiting() || box.stats().parks == 0) std::this_thread::yield();
  const Mailbox::Stats before = box.stats();

  std::vector<Message> batch;
  for (uint32_t i = 0; i < kMessages; ++i) batch.push_back(MakeItem(0, i));
  const size_t capacity = batch.capacity();
  box.PushMessages(batch);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), capacity);
  consumer.join();

  const Mailbox::Stats after = box.stats();
  EXPECT_EQ(after.wakes - before.wakes, 1u);
  EXPECT_EQ(after.push_batches - before.push_batches, 1u);
  EXPECT_EQ(after.pushed - before.pushed, kMessages);
  ASSERT_EQ(seqs.size(), kMessages);
  for (uint32_t i = 0; i < kMessages; ++i) EXPECT_EQ(seqs[i], i);
  EXPECT_TRUE(box.Empty());
}

// The Inbox's park rule, deterministically: the wait hook itself pushes, so
// every push lands while the consumer is parked. Only the first finds the
// inbox empty and writes the eventfd; the write lands after nobody read it,
// so the next park returns at once and reads it, and the park after that
// waits out its deadline. A park with items pending does not wait at all.
TEST(Inbox, OnlyTheEdgePushWakesAPark) {
  constexpr int kPushes = 100;
  Inbox<int> inbox;
  EXPECT_TRUE(inbox.Park([&] {
    EXPECT_TRUE(inbox.parked());
    for (int i = 0; i < kPushes; ++i) inbox.Push(i);
  }));
  EXPECT_FALSE(inbox.parked());
  EXPECT_EQ(inbox.stats().wakes, 1u);
  EXPECT_EQ(inbox.stats().parks, 1u);
  std::vector<int> items;
  ASSERT_TRUE(inbox.Swap(items));
  ASSERT_EQ(items.size(), static_cast<size_t>(kPushes));
  for (int i = 0; i < kPushes; ++i) EXPECT_EQ(items[i], i);

  auto start = Clock::now();
  inbox.Park([&] { inbox.WaitFd(start + std::chrono::seconds(30)); });
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(10)) << "the late write was lost";
  start = Clock::now();
  inbox.Park([&] { inbox.WaitFd(start + std::chrono::milliseconds(2)); });
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(2)) << "a second wake was read";
  EXPECT_EQ(inbox.stats().parks, 3u);

  items.clear();
  inbox.Push(kPushes);
  EXPECT_FALSE(inbox.Park([] { ADD_FAILURE() << "waited with an item pending"; }));
  EXPECT_EQ(inbox.stats().parks, 3u);
  EXPECT_EQ(inbox.stats().wakes, 1u);
  ASSERT_TRUE(inbox.Swap(items));
  EXPECT_EQ(items, std::vector<int>{kPushes});
}

// A drain deadline that falls inside the pre-park spin ends the drain on
// time and without a park: the spin never holds a worker past the deadline
// it computed from its next timer. The fastest of a few drains must return
// well before a full spin would have, so a spin that ignored the deadline
// fails even on a host that preempts the test now and then.
TEST(Mailbox, DeadlineInsideSpinReturnsWithoutParking) {
  constexpr auto kDeadline = Mailbox::kSpinBeforePark / 10;
  Mailbox box;
  Clock::duration fastest = Clock::duration::max();
  for (int i = 0; i < 20; ++i) {
    const auto start = Clock::now();
    EXPECT_EQ(box.DrainUntil(start + kDeadline, 16, [](MailboxNode*) {}), 0u);
    fastest = std::min(fastest, Clock::now() - start);
  }
  EXPECT_EQ(box.stats().parks, 0u);
  EXPECT_FALSE(box.consumer_waiting());
  EXPECT_LT(fastest, Mailbox::kSpinBeforePark);
}

// Pushes race parks that time out. The consumer drains with deadlines of
// 100-300 us, past the spin, so it parks and times out over and over, while
// a producer pushes with jittered gaps: some land inside the spin, some on a
// parked consumer, and some just after a park's wait ended, where the wake
// they send must neither be lost nor wake a later park twice. Every item
// arrives once and in order, each wake needs a park, and the run ends well
// within its bound, so no item waited for a wake that never came.
TEST(Mailbox, PushRacingTimedOutParkIsDelivered) {
  constexpr uint32_t kItems = 20000;
  Mailbox box;
  const auto start = Clock::now();
  std::thread producer([&box]() {
    uint64_t x = 88172645463325252ull;  // xorshift64: a fixed jitter stream
    for (uint32_t seq = 0; seq < kItems; ++seq) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto gap = std::chrono::microseconds(x % 250);
      if (gap < Mailbox::kSpinBeforePark) {
        const auto until = Clock::now() + gap;
        while (Clock::now() < until) {
        }
      } else {
        std::this_thread::sleep_for(gap);
      }
      box.PushMessage(MakeItem(0, seq));
    }
  });

  uint32_t next = 0;
  uint32_t turn = 0;
  const auto give_up = start + std::chrono::seconds(30);
  while (next < kItems && Clock::now() < give_up) {
    const auto deadline = Clock::now() + std::chrono::microseconds(100 + (turn++ * 37) % 201);
    box.DrainUntil(deadline, 64, [&](MailboxNode* n) {
      ASSERT_EQ(n->kind, MailboxNode::Kind::kMessage);
      ASSERT_EQ(TxnSeq(std::get<TimerFire>(n->msg.body).txn_id), next) << "out of order";
      ++next;
    });
  }
  producer.join();
  const auto elapsed = Clock::now() - start;

  EXPECT_EQ(next, kItems);
  EXPECT_TRUE(box.Empty());
  const Mailbox::Stats s = box.stats();
  EXPECT_GT(s.parks, 0u);
  EXPECT_LE(s.wakes, s.parks);
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

}  // namespace
}  // namespace partdb

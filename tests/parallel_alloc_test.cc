// Heap blocks per completed single-partition transaction in parallel mode,
// and how many of them are freed on a thread other than the one that
// allocated them. A KV SP round trip allocates three blocks: the args, which
// the session's completion callback draws and the session frees, and the
// result's two, which the partition allocates and frees once its ring of
// recent results comes round. A block freed on another thread costs several
// times a same-thread free, so this pins both counts.
//
// This executable replaces the global operator new with a counting one that
// tags each block with its allocating thread (tests/counting_new.h). The
// closed loop counts a fixed number of completions after a warmup; thread
// timing moves the counts a little, so the bounds leave a margin.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "counting_new.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "kv/kv_procedures.h"

namespace partdb {
namespace {

constexpr int kSessions = 16;
constexpr uint64_t kWarmupTxns = 2000;
constexpr uint64_t kCountedTxns = 20000;

/// One closed-loop client: its completion callback draws and submits the
/// next transaction on the session's worker, and switches the counting on
/// and off at the window's edges.
struct Client {
  const KvWorkloadOptions* config = nullptr;
  ProcId proc = kInvalidProc;
  int index = 0;
  std::atomic<uint64_t>* completions = nullptr;
  std::atomic<bool>* done = nullptr;
  std::unique_ptr<Session> session;

  void Next() {
    PayloadPtr args = DrawKvTxn(*config, index, session->rng());
    // Captures only `this`, so the callback fits std::function's inline
    // buffer and the resubmit allocates nothing of its own.
    session->Submit(proc, std::move(args), [this](const TxnResult& r) {
      EXPECT_TRUE(r.committed);
      const uint64_t n = completions->fetch_add(1, std::memory_order_relaxed) + 1;
      if (n == kWarmupTxns) g_counting.store(true, std::memory_order_relaxed);
      if (n == kWarmupTxns + kCountedTxns) {
        g_counting.store(false, std::memory_order_relaxed);
        done->store(true, std::memory_order_release);
      }
      if (!done->load(std::memory_order_acquire)) Next();
    });
  }
};

TEST(ParallelAlloc, SpRoundTripAllocatesThreeBlocksFreedWhereAllocated) {
  KvWorkloadOptions config;  // 2 partitions, 12 keys
  config.num_clients = kSessions;
  config.mp_fraction = 0.0;
  auto db = Database::Open(KvDbOptions(config, "speculation", RunMode::kParallel, 1));
  std::atomic<uint64_t> completions{0};
  std::atomic<bool> done{false};
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kSessions; ++c) {
    auto cl = std::make_unique<Client>();
    cl->config = &config;
    cl->proc = db->proc(kKvReadUpdateProc);
    cl->index = c;
    cl->completions = &completions;
    cl->done = &done;
    cl->session = db->CreateSession();
    clients.push_back(std::move(cl));
  }
  g_allocations.store(0);
  g_cross_thread_frees.store(0);
  for (auto& cl : clients) cl->Next();

  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (!done.load(std::memory_order_acquire) && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  g_counting.store(false);
  ASSERT_TRUE(done.load()) << "closed loop stalled at " << completions.load() << " completions";
  for (auto& cl : clients) cl->session->Drain();
  clients.clear();
  db->Close();

  const double blocks = static_cast<double>(g_allocations.load()) / kCountedTxns;
  const double cross = static_cast<double>(g_cross_thread_frees.load()) / kCountedTxns;
  std::printf("per completion: %.3f heap blocks, %.3f cross-thread frees\n", blocks, cross);
  EXPECT_LE(blocks, 3.5);
  EXPECT_LE(cross, 0.25);
}

}  // namespace
}  // namespace partdb

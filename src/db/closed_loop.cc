#include "db/closed_loop.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace partdb {

namespace {

/// One logical closed-loop client. Owned on the heap so the resubmitting
/// callback has a stable address; all fields after construction are touched
/// only from the client's session worker (or the sim pump).
struct ClientLoop {
  InvocationGenerator next;
  int index = 0;
  std::shared_ptr<std::atomic<bool>> stop;
  // Last member: its destructor (Session::Drain) must run before the fields
  // the completion callback reads (next) are destroyed.
  std::unique_ptr<Session> session;

  void IssueNext() {
    // The client draws from its session's stream: client c of a run is
    // always session slot c (the sim figure goldens pin the draws).
    Invocation inv = next(index, session->rng());
    // The callback captures only `this`: a trivially-copyable 8-byte functor
    // stays in std::function's inline buffer, so the resubmit path allocates
    // nothing. The final completion callback can still run while ~ClientLoop
    // is draining the session — `session` is the last-declared member, so
    // `stop` (declared before it) is alive for that read, and once stop is
    // set (always before destruction begins) the callback touches nothing
    // else.
    session->Submit(inv.proc, std::move(inv.args), [this](const TxnResult&) {
      if (!stop->load(std::memory_order_relaxed)) IssueNext();
    });
  }
};

}  // namespace

Metrics RunClosedLoop(DbHandle& db, const ClosedLoopOptions& options) {
  PARTDB_CHECK(options.num_clients >= 1);
  PARTDB_CHECK(options.next != nullptr);

  auto stop = std::make_shared<std::atomic<bool>>(false);
  std::vector<std::unique_ptr<ClientLoop>> clients;
  for (int c = 0; c < options.num_clients; ++c) {
    auto cl = std::make_unique<ClientLoop>();
    cl->session = db.CreateSession();
    cl->next = options.next;
    cl->index = c;
    cl->stop = stop;
    clients.push_back(std::move(cl));
  }
  for (auto& cl : clients) cl->IssueNext();

  Metrics m;
  if (db.mode() == RunMode::kParallel) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(options.warmup));
    db.BeginMeasurement();
    std::this_thread::sleep_for(std::chrono::nanoseconds(options.measure));
    m = db.EndMeasurement();
  } else {
    db.AdvanceSim(options.warmup);
    db.BeginMeasurement();
    db.AdvanceSim(options.measure);
    m = db.EndMeasurement();
  }

  stop->store(true, std::memory_order_relaxed);
  // Drain every session before tearing the loops down: a callback that
  // raced past the stop flag may resubmit once more, and Drain returns only
  // when no completion callback is running or pending — after that, no
  // callback can touch the ClientLoop fields being destroyed.
  for (auto& cl : clients) cl->session->Drain();
  clients.clear();
  return m;
}

}  // namespace partdb

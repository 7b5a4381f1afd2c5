// Session: the submission endpoint of a partdb Database — the one interface
// driver code is written against, whether the database is embedded in the
// same process (LocalSession over a SessionActor) or served over TCP by a
// DbServer (net/RemoteSession). Many sessions can exist concurrently (one
// per driver thread is the intended pattern). A session is open-loop: any
// number of transactions can be in flight up to the database's
// max_inflight_per_session admission bound, which Submit surfaces as
// SubmitResult::accepted identically on every transport.
#ifndef PARTDB_DB_SESSION_H_
#define PARTDB_DB_SESSION_H_

#include <string_view>

#include "client/session_actor.h"

namespace partdb {

class Database;

/// Abstract submission endpoint. Create via Database::CreateSession or
/// RemoteDatabase::CreateSession (both thread-safe); destroy before the
/// owning handle. The destructor drains any transactions still in flight.
class Session {
 public:
  virtual ~Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Asynchronous submission; `cb` (may be null) runs on the session's worker
  /// thread once the transaction completes. Thread-safe. A non-accepted
  /// result is the overload signal: nothing was enqueued, `cb` never runs.
  virtual SubmitResult Submit(ProcId proc, PayloadPtr args, TxnCallback cb = nullptr) = 0;
  SubmitResult Submit(std::string_view proc_name, PayloadPtr args, TxnCallback cb = nullptr) {
    return Submit(proc(proc_name), std::move(args), std::move(cb));
  }

  /// Synchronous execution: submits and blocks until the result is in. In
  /// simulated mode this pumps the virtual clock, so it must be the only
  /// thread driving the database. CHECK-fails when not admitted (callers
  /// needing the overload signal use Submit).
  virtual TxnResult Execute(ProcId proc, PayloadPtr args) = 0;
  TxnResult Execute(std::string_view proc_name, PayloadPtr args) {
    return Execute(proc(proc_name), std::move(args));
  }

  /// Blocks until every transaction submitted through this session completed.
  virtual void Drain() = 0;

  virtual uint64_t outstanding() const = 0;

  /// Id of a registered procedure on the serving database. CHECK-fails when
  /// absent.
  virtual ProcId proc(std::string_view name) const = 0;

  /// The session's private random stream (client stream `slot` of the
  /// serving database's seed). Owned by the session's worker: callers may
  /// touch it only from within this session's callbacks, or before any
  /// traffic reaches the session (a closed-loop driver generating its first
  /// request).
  virtual Rng& rng() = 0;

 protected:
  Session() = default;

  /// Shared blocking-Execute implementation over the virtual Submit:
  /// submits, parks the calling thread, returns the result delivered by the
  /// session's worker. Usable wherever completions arrive on another thread
  /// (embedded parallel mode, remote sessions) — NOT in simulated mode,
  /// where the caller itself must pump the clock.
  TxnResult SubmitAndWait(ProcId proc, PayloadPtr args);
};

/// The embedded-database session: a handle on a SessionActor bound into the
/// local database.
class LocalSession : public Session {
 public:
  ~LocalSession() override;

  SubmitResult Submit(ProcId proc, PayloadPtr args, TxnCallback cb = nullptr) override;
  using Session::Submit;
  TxnResult Execute(ProcId proc, PayloadPtr args) override;
  using Session::Execute;
  void Drain() override;
  uint64_t outstanding() const override { return actor_->outstanding(); }
  ProcId proc(std::string_view name) const override;
  Rng& rng() override { return actor_->rng(); }

  SessionActor& actor() { return *actor_; }

 private:
  friend class Database;
  LocalSession(Database* db, SessionActor* actor) : db_(db), actor_(actor) {}

  Database* db_;
  SessionActor* actor_;
};

}  // namespace partdb

#endif  // PARTDB_DB_SESSION_H_

// DbServer: hosts an opened Database on a TCP listener — the network tier's
// server side (paper target deployment: clients invoke named stored
// procedures with serialized parameters over a socket, H-Store style).
//
// Ingress is event-driven: a small fixed pool of epoll EventLoops (sharded
// by accept order) multiplexes every connection, so total server threads are
// `num_loops + 1 accept thread` regardless of how many clients connect. One
// connection carries many logical sessions (protocol v2 session_id): the
// server binds a server-side Session lazily per id and frees it on
// CloseSession or disconnect. Decoded invocations are pumped through
// Session::Submit exactly like embedded traffic, so the whole
// concurrency-control machinery (routing, 2PC, admission control, metrics)
// is shared with the in-process path. Completion callbacks on the session
// workers never touch sockets — they encode the response into the owning
// connection's outbox and wake its loop; responses for a burst of
// completions leave in one coalesced flush syscall.
#ifndef PARTDB_NET_DB_SERVER_H_
#define PARTDB_NET_DB_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "db/database.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"

namespace partdb {

struct DbServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; DbServer::port() reports the bound port.
  int port = 0;
  /// Event-loop threads; connections are sharded across them round-robin.
  int num_loops = 1;
};

/// Ingress counters, snapshotted by DbServer::Stats.
struct DbServerStats {
  uint64_t accepted_conns = 0;  // connections that completed the Hello
  uint64_t reaped_conns = 0;    // connections torn down (EOF, error, Stop)
  uint64_t active_conns = 0;    // accepted_conns - reaped_conns
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t rejected_requests = 0;  // kRejected responses sent
  uint64_t protocol_errors = 0;    // malformed frames (the conn is dropped)
  /// Counters of the retired per-connection payload pool, kept because
  /// bench_partdb reads them (net.pool_hit_frac). Every request now decodes
  /// into a fresh payload: hits stay 0 and misses counts every decoded
  /// request.
  uint64_t payload_pool_hits = 0;
  uint64_t payload_pool_misses = 0;
  EventLoopStats io;               // aggregated over every loop
};

/// Serves `db` (RunMode::kParallel; must outlive the server) until Stop.
/// A request for a procedure without an args codec drops its connection;
/// stop the server before Database::Close.
class DbServer {
 public:
  explicit DbServer(Database* db, DbServerOptions options = {});
  ~DbServer();
  DbServer(const DbServer&) = delete;
  DbServer& operator=(const DbServer&) = delete;

  int port() const { return port_; }
  int num_loops() const { return static_cast<int>(loops_.size()); }

  DbServerStats Stats() const;

  /// Stops accepting, severs every connection (in-flight transactions are
  /// drained; their responses are attempted and dropped on dead peers),
  /// joins all threads. Idempotent.
  void Stop();

 private:
  struct ServerConn;

  void AcceptLoop();
  bool OnFrame(const std::shared_ptr<ServerConn>& sc, LoopConn& lc, const FrameView& fv);
  void OnClose(const std::shared_ptr<ServerConn>& sc);
  void RetireSession(std::unique_ptr<LocalSession> session);
  void ReapDeadSessions();  // blocking (dtors drain) — accept thread / Stop only

  Database* db_;
  TcpListener listener_;
  int port_ = 0;
  std::string hello_;  // identical preamble for every connection

  std::vector<std::unique_ptr<EventLoop>> loops_;
  size_t next_loop_ = 0;  // accept-thread only

  std::thread accept_thread_;
  Mutex mu_;
  bool stopping_ PARTDB_GUARDED_BY(mu_) = false;

  // Sessions leaving the loop threads (CloseSession / disconnect) with
  // requests still admitted park here; the accept thread destroys them
  // (their dtors drain those transactions, which must never block a loop
  // thread).
  Mutex dead_mu_;
  std::vector<std::unique_ptr<LocalSession>> dead_sessions_ PARTDB_GUARDED_BY(dead_mu_);

  std::atomic<uint64_t> accepted_conns_{0};
  std::atomic<uint64_t> reaped_conns_{0};
  std::atomic<uint64_t> sessions_opened_{0};
  std::atomic<uint64_t> sessions_closed_{0};
  std::atomic<uint64_t> rejected_requests_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> decoded_requests_{0};
};

}  // namespace partdb

#endif  // PARTDB_NET_DB_SERVER_H_

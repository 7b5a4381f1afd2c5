// RemoteDatabase / RemoteSession: the client side of the network tier.
// partdb::Connect(host, port) dials a DbServer and returns a DbHandle whose
// sessions expose the same Submit/Execute/Drain surface as embedded ones —
// closed-loop and open-loop drivers run unmodified over TCP.
//
// Sessions are multiplexed (protocol v2): many RemoteSessions share one TCP
// connection and one client-side event loop, each under its own
// client-assigned session_id; requests pipeline freely and small writes from
// concurrent submitters coalesce into single flush syscalls. By default
// every session rides the first connection (which doubles as the handle's
// measurement-control channel); ConnectOptions::sessions_per_conn spreads
// sessions over additional connections. The server's admission bound
// (DbOptions::max_inflight_per_session, shipped in the handshake) is
// enforced client-side so Submit returns the same overload signal an
// embedded session would, without a wasted round trip.
#ifndef PARTDB_NET_REMOTE_DB_H_
#define PARTDB_NET_REMOTE_DB_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/txn_table.h"
#include "db/db_handle.h"
#include "db/procedure_registry.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"

namespace partdb {

struct ConnectOptions {
  /// Procedure descriptors matched by name against the server's table — they
  /// provide the client-side result codecs (decode_result; route/round_input
  /// are unused remotely). Procedures missing here can still be invoked, but
  /// a result payload arriving for one is a usage error (CHECK).
  std::vector<ProcedureDescriptor> procedures;
  /// Session random streams: session slot i draws from
  /// ClientStreamSeed(seed, i), mirroring the embedded slot streams.
  uint64_t seed = 12345;
  /// Sessions multiplexed per TCP connection before a new one is dialed.
  /// 0 = unlimited: every session shares the first connection.
  uint32_t sessions_per_conn = 0;
};

class RemoteDatabase;

/// A multiplexed session on a shared connection. Thread-safe like
/// LocalSession; completion callbacks run on the handle's event-loop thread
/// and must not block.
class RemoteSession : public Session {
 public:
  ~RemoteSession() override;

  SubmitResult Submit(ProcId proc, PayloadPtr args, TxnCallback cb = nullptr) override;
  using Session::Submit;
  TxnResult Execute(ProcId proc, PayloadPtr args) override;
  using Session::Execute;
  void Drain() override;
  uint64_t outstanding() const override;
  ProcId proc(std::string_view name) const override;
  Rng& rng() override { return rng_; }

 private:
  friend class RemoteDatabase;
  struct MuxConn;

  RemoteSession(const RemoteDatabase* db, std::shared_ptr<MuxConn> conn, uint32_t session_id,
                uint64_t rng_seed);

  /// Loop thread: one response for this session, reader positioned at the
  /// result bytes.
  void OnResponse(const ResponseHeader& h, WireReader& r);
  /// Loop thread: the underlying connection died.
  void OnConnClosed();

  struct PendingTxn {
    ProcId proc = kInvalidProc;
    TxnCallback cb;
    Time submit_ns = 0;  // steady-clock ns

    void Reset() { *this = PendingTxn{}; }
  };

  const RemoteDatabase* db_;
  std::shared_ptr<MuxConn> conn_;
  const uint32_t session_id_;
  Rng rng_;

  mutable Mutex mu_;
  CondVar drained_cv_;
  /// Keyed by request seq. Its size is the admission count: an entry leaves
  /// before its callback runs, like an embedded session's admission slot.
  TxnTable<PendingTxn> pending_ PARTDB_GUARDED_BY(mu_);
  uint64_t next_seq_ PARTDB_GUARDED_BY(mu_) = 0;  // session-scoped
  uint64_t outstanding_ PARTDB_GUARDED_BY(mu_) = 0;
  /// Connection saw EOF / protocol error.
  bool closed_ PARTDB_GUARDED_BY(mu_) = false;
};

/// Client handle on a served database. Create via Connect; destroy after
/// every session it handed out.
class RemoteDatabase : public DbHandle {
 public:
  /// Dials `host:port` (numeric IPv4), performs the handshake, and returns
  /// the handle. CHECK-fails when the server is unreachable or speaks a
  /// different protocol version.
  static std::unique_ptr<RemoteDatabase> Connect(const std::string& host, int port,
                                                 ConnectOptions options = {});

  ~RemoteDatabase() override;

  std::unique_ptr<Session> CreateSession() override;
  ProcId proc(std::string_view name) const override;
  RunMode mode() const override { return RunMode::kParallel; }
  void BeginMeasurement() override;
  Metrics EndMeasurement() override;
  void AdvanceSim(Duration) override { PARTDB_CHECK(false); }  // remote: no sim clock

  /// The server's per-session admission bound (0 = unlimited).
  uint64_t max_inflight() const { return hello_.max_inflight; }
  /// The server's session-slot capacity from the handshake.
  uint32_t max_sessions() const { return hello_.max_sessions; }
  /// TCP connections currently dialed (1 = everything multiplexed).
  size_t conn_count() const;
  /// Client-side I/O counters (frames pipelined, flush batches, ...).
  EventLoopStats IoStats() const { return loop_.stats(); }

 private:
  friend class RemoteSession;
  using MuxConn = RemoteSession::MuxConn;

  RemoteDatabase(std::string host, int port, ConnectOptions options, TcpConn control,
                 HelloBody hello);

  const PayloadDecoder* result_decoder(ProcId proc) const;

  /// Registers a dialed+greeted socket with the loop as a new MuxConn.
  /// Appends to conns_, so the caller holds conn_mu_ (the constructor takes
  /// it purely for this; no concurrent access exists there yet).
  std::shared_ptr<MuxConn> AdoptConn(TcpConn sock) PARTDB_REQUIRES(conn_mu_);
  /// Loop thread: routes a server frame to its session / control waiter.
  bool OnFrame(const std::shared_ptr<MuxConn>& mc, const FrameView& fv);
  void OnClose(const std::shared_ptr<MuxConn>& mc);

  /// One measurement-control round trip over the first connection.
  std::string ControlRoundTrip(FrameType send, FrameType expect);

  std::string host_;
  int port_;
  ConnectOptions options_;
  HelloBody hello_;
  std::unordered_map<std::string, ProcId> by_name_;
  std::vector<PayloadDecoder> result_decoders_;  // indexed by ProcId; may be null

  EventLoop loop_;

  /// Guards conns_ and session-slot assignment.
  mutable Mutex conn_mu_;
  std::vector<std::shared_ptr<MuxConn>> conns_ PARTDB_GUARDED_BY(conn_mu_);
  int next_session_slot_ PARTDB_GUARDED_BY(conn_mu_) = 0;

  Mutex control_mu_;  // measurement round trips are serialized
  Mutex ctrl_mu_;     // guards the reply rendezvous below
  CondVar ctrl_cv_;
  bool ctrl_have_ PARTDB_GUARDED_BY(ctrl_mu_) = false;
  bool ctrl_closed_ PARTDB_GUARDED_BY(ctrl_mu_) = false;
  FrameType ctrl_type_ PARTDB_GUARDED_BY(ctrl_mu_) = FrameType::kHello;
  std::string ctrl_body_ PARTDB_GUARDED_BY(ctrl_mu_);
};

/// Convenience alias for the common call shape: partdb::Connect("1.2.3.4", 5432).
inline std::unique_ptr<RemoteDatabase> Connect(const std::string& host, int port,
                                               ConnectOptions options = {}) {
  return RemoteDatabase::Connect(host, port, std::move(options));
}

}  // namespace partdb

#endif  // PARTDB_NET_REMOTE_DB_H_

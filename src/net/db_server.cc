#include "net/db_server.h"

#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace partdb {

/// One server-side session and its requests not yet answered. The
/// completion callback counts a request answered before it sends the
/// response, so once the client has read every response the count is 0,
/// even while the callback's tail still runs on the session's worker.
struct DbServer::ServerSession {
  std::atomic<uint64_t> unanswered{0};
  std::unique_ptr<Session> session;  // destroyed first: its dtor drains
};

/// Per-connection server state. Owned by the handler closures; touched only
/// on the connection's loop thread.
struct DbServer::ServerConn {
  std::unordered_map<uint32_t, std::unique_ptr<ServerSession>> sessions;
};

DbServer::DbServer(Database* db, DbServerOptions options) : db_(db) {
  PARTDB_CHECK(db_ != nullptr);
  // Simulated databases cannot be served: their clock only advances when a
  // session pumps it, and server threads must never own the pump.
  PARTDB_CHECK(db_->mode() == RunMode::kParallel);
  PARTDB_CHECK(options.num_loops >= 1);

  HelloBody hello;
  hello.max_inflight = db_->options().max_inflight_per_session;
  hello.mode = 0;  // parallel
  hello.max_sessions = static_cast<uint32_t>(db_->options().max_sessions);
  for (size_t i = 0; i < db_->registry().size(); ++i) {
    hello.proc_names.push_back(db_->registry().Get(static_cast<ProcId>(i)).name);
  }
  hello_ = EncodeHello(hello);

  loops_.reserve(static_cast<size_t>(options.num_loops));
  for (int i = 0; i < options.num_loops; ++i) {
    loops_.push_back(std::make_unique<EventLoop>("server-loop-" + std::to_string(i),
                                                 AffinityCpuFor(options.loop_affinity, i)));
  }

  listener_ = TcpListener::Listen(options.host, options.port);
  port_ = listener_.port();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

DbServer::~DbServer() { Stop(); }

void DbServer::AcceptLoop() {
  while (true) {
    {
      MutexLock lock(mu_);
      if (stopping_) return;
    }
    ReapDeadSessions();
    TcpConn sock = listener_.AcceptWithTimeout(/*timeout_ms=*/50);
    if (!sock.valid()) continue;
    // The Hello goes out blocking, before the loop owns the socket: it is
    // the only server frame with ordering relative to nothing.
    if (!WriteFrame(sock, FrameType::kHello, hello_)) continue;
    accepted_conns_.fetch_add(1, std::memory_order_relaxed);

    auto sc = std::make_shared<ServerConn>();
    LoopConnHandlers handlers;
    handlers.on_frame = [this, sc](LoopConn& lc, const FrameView& fv) {
      return OnFrame(sc, lc, fv);
    };
    handlers.on_close = [this, sc](LoopConn&) { OnClose(sc); };
    EventLoop& loop = *loops_[next_loop_];
    next_loop_ = (next_loop_ + 1) % loops_.size();
    loop.AddConn(std::move(sock), std::move(handlers));
  }
}

bool DbServer::OnFrame(const std::shared_ptr<ServerConn>& sc, LoopConn& lc, const FrameView& fv) {
  switch (fv.type) {
    case FrameType::kRequest: {
      WireReader r(fv.body);
      RequestHeader h;
      if (!DecodeRequestHeader(r, &h)) break;
      if (h.proc < 0 || static_cast<size_t>(h.proc) >= db_->registry().size()) break;
      const ProcedureDescriptor& desc = db_->registry().Get(h.proc);
      // Malformed args, and procedures without an args codec (embedded-only):
      // the proc id is remote input, so both are protocol violations.
      PayloadPtr args = DecodeArgs(desc, r);
      if (args == nullptr || !r.AtEnd()) break;
      decoded_requests_.fetch_add(1, std::memory_order_relaxed);
      // Wire-shape validity is not semantic validity: drop arguments whose
      // derived routing leaves this database (a well-formed frame naming
      // partition 1000 must not trip the runtime's CHECKs).
      const TxnRouting route = desc.route(*args);
      bool routable = !route.participants.empty() && route.rounds >= 1;
      for (PartitionId p : route.participants) {
        routable = routable && p >= 0 && p < db_->options().num_partitions;
      }
      if (!routable) break;

      auto it = sc->sessions.find(h.session_id);
      if (it == sc->sessions.end()) {
        std::unique_ptr<Session> fresh = db_->TryCreateSession();
        if (fresh != nullptr) {
          sessions_opened_.fetch_add(1, std::memory_order_relaxed);
          it = sc->sessions.emplace(h.session_id, std::make_unique<ServerSession>()).first;
          it->second->session = std::move(fresh);
        }
      }
      ServerSession* ss = it == sc->sessions.end() ? nullptr : it->second.get();

      SubmitResult sr;
      if (ss != nullptr) {
        const uint32_t session_id = h.session_id;
        const uint64_t seq = h.seq;
        LoopConnPtr lp = lc.shared_from_this();
        // `ss` outlives the callback: destroying it drains the session first.
        ss->unanswered.fetch_add(1);
        sr = ss->session->Submit(
            h.proc, std::move(args),
            [lp = std::move(lp), ss, session_id, seq](const TxnResult& res) {
              // Answered before the send: a client that read this response
              // and closes the session finds it idle.
              ss->unanswered.fetch_sub(1);
              ResponseHeader rh;
              rh.session_id = session_id;
              rh.seq = seq;
              rh.status = res.committed ? TxnStatus::kCommitted : TxnStatus::kUserAbort;
              rh.attempts = res.attempts;
              rh.has_result = res.payload != nullptr;
              // A peer that vanished mid-transaction was torn down by its
              // loop; the dropped send is not an error here.
              lp->SendFrame(FrameType::kResponse, [&](WireWriter& w) {
                AppendResponseBody(w, rh, res.payload.get());
              });
            });
        if (!sr.accepted) ss->unanswered.fetch_sub(1);
      }
      if (!sr.accepted) {
        // Refused — by admission control (the client's own bound normally
        // prevents this; the server enforces regardless), or because every
        // session slot is already taken (more logical sessions than
        // DbOptions::max_sessions). Tell the client rather than crashing
        // the shared server.
        rejected_requests_.fetch_add(1, std::memory_order_relaxed);
        ResponseHeader rh;
        rh.session_id = h.session_id;
        rh.seq = h.seq;
        rh.status = TxnStatus::kRejected;
        rh.attempts = 0;
        lc.SendFrame(FrameType::kResponse,
                     [&](WireWriter& w) { AppendResponseBody(w, rh, nullptr); });
      }
      return true;
    }
    case FrameType::kCloseSession: {
      WireReader r(fv.body);
      const uint32_t session_id = r.U32();
      if (!r.AtEnd()) break;
      auto it = sc->sessions.find(session_id);
      if (it != sc->sessions.end()) {
        RetireSession(std::move(it->second));
        sc->sessions.erase(it);
      }
      // Unknown id: benign. Server sessions bind lazily on the first
      // kRequest, so a client session destroyed without ever submitting
      // sends CloseSession for an id this side never opened — dropping the
      // shared multiplexed connection over that would take every other
      // session on it down too.
      return true;
    }
    case FrameType::kBeginMeasure: {
      db_->BeginMeasurement();
      lc.SendFrame(FrameType::kMeasureBegun, [](WireWriter&) {});
      return true;
    }
    case FrameType::kEndMeasure: {
      const std::string body = EncodeMetrics(db_->EndMeasurement());
      lc.SendFrame(FrameType::kMetrics,
                   [&](WireWriter& w) { w.Raw(body.data(), body.size()); });
      return true;
    }
    default:
      break;  // protocol violation: drop the conn
  }
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void DbServer::OnClose(const std::shared_ptr<ServerConn>& sc) {
  for (auto& [id, ss] : sc->sessions) {
    RetireSession(std::move(ss));
  }
  sc->sessions.clear();
  // Release: a Stats() that sees this count also sees the accept it follows.
  reaped_conns_.fetch_add(1, std::memory_order_release);
}

void DbServer::RetireSession(std::unique_ptr<ServerSession> ss) {
  sessions_closed_.fetch_add(1, std::memory_order_relaxed);
  // A well-behaved client reads every response before CloseSession, so
  // nothing is unanswered and the dtor waits at most for the tail of a
  // callback that already replied: destroy inline, and the slot is free
  // before this connection's next frame. A session with requests still
  // unanswered (a peer that vanished mid-transaction) would block the dtor
  // on those transactions, so it parks for the accept thread.
  if (ss->unanswered.load() == 0) {
    ss.reset();
    return;
  }
  MutexLock lock(dead_mu_);
  dead_sessions_.push_back(std::move(ss));
}

void DbServer::ReapDeadSessions() {
  std::vector<std::unique_ptr<ServerSession>> dead;
  {
    MutexLock lock(dead_mu_);
    dead.swap(dead_sessions_);
  }
  // Destroyed outside the lock: each dtor drains, and its in-flight
  // completions still deliver their responses through the event loop first.
  dead.clear();
}

DbServerStats DbServer::Stats() const {
  DbServerStats s;
  // Reaped first: every connection it counts is then counted as accepted,
  // so active_conns cannot underflow.
  s.reaped_conns = reaped_conns_.load(std::memory_order_acquire);
  s.accepted_conns = accepted_conns_.load(std::memory_order_relaxed);
  s.active_conns = s.accepted_conns - s.reaped_conns;
  s.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  s.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  s.rejected_requests = rejected_requests_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.payload_pool_misses = decoded_requests_.load(std::memory_order_relaxed);
  for (const auto& loop : loops_) {
    s.io += loop->stats();
    if (loop->pinned()) ++s.pinned_loops;
  }
  return s;
}

void DbServer::Stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  // The accept loop exits on its next stop-flag check (its poll wait is
  // bounded); only then is the listener closed — no thread still polls it.
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // Stopping the loops runs on_close for every live connection, parking
  // their sessions; the final reap drains them. Completion callbacks of
  // still-running transactions send into closed conns and drop — the same
  // harmless outcome as a peer that vanished.
  for (auto& loop : loops_) loop->Stop();
  ReapDeadSessions();
}

}  // namespace partdb

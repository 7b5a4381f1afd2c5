#include "net/remote_db.h"

#include <chrono>
#include <utility>

namespace partdb {

namespace {

Time SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Dials `host:port` and reads its Hello into `hello`. CHECK-fails when the
/// server is unreachable, speaks another protocol version or is not a
/// parallel-mode database.
TcpConn DialAndGreet(const std::string& host, int port, HelloBody* hello) {
  TcpConn sock = TcpConn::ConnectTo(host, port);
  PARTDB_CHECK(sock.valid());
  Frame f;
  PARTDB_CHECK(ReadFrame(sock, &f));
  PARTDB_CHECK(f.type == FrameType::kHello);
  PARTDB_CHECK(DecodeHello(f.body, hello));
  PARTDB_CHECK(hello->mode == 0);  // parallel
  return sock;
}

}  // namespace

/// One shared TCP connection carrying many sessions. `sessions` maps live
/// session ids to their owners for loop-thread response dispatch, and its
/// size is what ConnectOptions::sessions_per_conn bounds. A session registers
/// before its first Submit and unregisters only after Drain (so no response
/// can race its teardown).
struct RemoteSession::MuxConn {
  LoopConnPtr lc;
  /// True only for the first connection, which carries the measurement
  /// control traffic. Set before the loop sees the conn, immutable after.
  bool is_control = false;

  Mutex mu;
  std::unordered_map<uint32_t, RemoteSession*> sessions PARTDB_GUARDED_BY(mu);
  uint32_t next_session_id PARTDB_GUARDED_BY(mu) = 0;
  bool closed PARTDB_GUARDED_BY(mu) = false;
};

// --- RemoteSession -----------------------------------------------------------

RemoteSession::RemoteSession(const RemoteDatabase* db, std::shared_ptr<MuxConn> conn,
                             uint32_t session_id, uint64_t rng_seed)
    : db_(db), conn_(std::move(conn)), session_id_(session_id), rng_(rng_seed) {}

RemoteSession::~RemoteSession() {
  Drain();
  // Drained: no response for this id can be in flight, so unregistering
  // cannot race a dispatch holding our pointer.
  {
    MutexLock lock(conn_->mu);
    conn_->sessions.erase(session_id_);
  }
  // Release the server-side slot. Best effort: a dead connection already
  // freed every session it carried.
  const uint32_t id = session_id_;
  conn_->lc->SendFrame(FrameType::kCloseSession, [id](WireWriter& w) {
    AppendCloseSessionBody(w, CloseSessionBody{id});
  });
}

SubmitResult RemoteSession::Submit(ProcId proc, PayloadPtr args, TxnCallback cb) {
  PARTDB_CHECK(args != nullptr);
  const uint64_t max = db_->max_inflight();
  uint64_t seq;
  {
    MutexLock lock(mu_);
    PARTDB_CHECK(!closed_);  // server gone or protocol error
    if (max != 0 && pending_.size() >= max) return {false, kInvalidTxn};
    ++outstanding_;
    seq = next_seq_++;
    // Registered before the frame leaves: the response may beat the
    // registration otherwise.
    PendingTxn& p = pending_.Emplace(seq);
    p.proc = proc;
    p.cb = std::move(cb);
    p.submit_ns = SteadyNowNs();
  }
  RequestHeader h;
  h.session_id = session_id_;
  h.seq = seq;
  h.proc = proc;
  // Encodes straight into the shared connection's outbox — pipelined with
  // whatever the other sessions are submitting, no flush round trip.
  const bool sent = conn_->lc->SendFrame(
      FrameType::kRequest, [&](WireWriter& w) { AppendRequestBody(w, h, *args); });
  PARTDB_CHECK(sent);  // a broken connection mid-run is fatal, like a lost node
  return {true, seq};
}

TxnResult RemoteSession::Execute(ProcId proc, PayloadPtr args) {
  return SubmitAndWait(proc, std::move(args));
}

void RemoteSession::Drain() {
  MutexLock lock(mu_);
  while (outstanding_ != 0 && !closed_) drained_cv_.Wait(mu_);
  PARTDB_CHECK(outstanding_ == 0);  // closed with txns in flight: server died
}

uint64_t RemoteSession::outstanding() const {
  MutexLock lock(mu_);
  return outstanding_;
}

ProcId RemoteSession::proc(std::string_view name) const { return db_->proc(name); }

void RemoteSession::OnResponse(const ResponseHeader& h, WireReader& r) {
  PendingTxn p;
  {
    MutexLock lock(mu_);
    PendingTxn* found = pending_.Find(h.seq);
    PARTDB_CHECK(found != nullptr);
    p = std::move(*found);
    // The admission slot frees before the callback runs — identical to the
    // embedded session, so resubmit-from-callback closed loops hold one
    // slot under either transport.
    pending_.Erase(h.seq);
  }

  TxnResult res;
  res.committed = h.status == TxnStatus::kCommitted;
  // The client-side admission bound makes inflight rejections unreachable;
  // one arriving anyway means the peer ran out of session slots (more
  // logical sessions than the server's DbOptions::max_sessions) or the two
  // bounds disagree. The transaction completes refused, like an abort.
  res.rejected = h.status == TxnStatus::kRejected;
  res.latency_ns = SteadyNowNs() - p.submit_ns;
  res.attempts = h.attempts;
  if (h.has_result) {
    const PayloadDecoder* dec = db_->result_decoder(p.proc);
    PARTDB_CHECK(dec != nullptr);  // pass the procedure list to Connect
    res.payload = (*dec)(r);
    PARTDB_CHECK(res.payload != nullptr && r.AtEnd());
  }

  if (p.cb) p.cb(res);
  {
    // notify under the lock: the waiter in Drain may destroy this session
    // the instant it reacquires mu_, so nothing may touch *this after the
    // unlock below.
    MutexLock lock(mu_);
    PARTDB_CHECK(outstanding_ > 0);
    --outstanding_;
    drained_cv_.NotifyAll();
  }
}

void RemoteSession::OnConnClosed() {
  MutexLock lock(mu_);
  closed_ = true;
  // Fail loudly, not silently: a connection that died with transactions in
  // flight would otherwise leave Execute/Drain callers blocked forever.
  PARTDB_CHECK(pending_.empty());
  drained_cv_.NotifyAll();
}

// --- RemoteDatabase ----------------------------------------------------------

std::unique_ptr<RemoteDatabase> RemoteDatabase::Connect(const std::string& host, int port,
                                                        ConnectOptions options) {
  HelloBody hello;
  TcpConn control = DialAndGreet(host, port, &hello);
  return std::unique_ptr<RemoteDatabase>(new RemoteDatabase(
      host, port, std::move(options), std::move(control), std::move(hello)));
}

RemoteDatabase::RemoteDatabase(std::string host, int port, ConnectOptions options,
                               TcpConn control, HelloBody hello)
    : host_(std::move(host)),
      port_(port),
      options_(std::move(options)),
      hello_(std::move(hello)),
      loop_("client-loop") {
  result_decoders_.resize(hello_.proc_names.size());
  for (size_t i = 0; i < hello_.proc_names.size(); ++i) {
    by_name_.emplace(hello_.proc_names[i], static_cast<ProcId>(i));
    for (const ProcedureDescriptor& d : options_.procedures) {
      if (d.name == hello_.proc_names[i]) result_decoders_[i] = d.decode_result;
    }
  }
  // The first connection exists from birth: it carries the measurement
  // control traffic and, by default, every multiplexed session.
  MutexLock lock(conn_mu_);
  AdoptConn(std::move(control));
}

RemoteDatabase::~RemoteDatabase() {
  // Contract: every session is gone by now, so the maps are empty and Stop
  // just tears the idle connections down.
  loop_.Stop();
}

std::shared_ptr<RemoteDatabase::MuxConn> RemoteDatabase::AdoptConn(TcpConn sock) {
  auto mc = std::make_shared<MuxConn>();
  mc->is_control = conns_.empty();
  LoopConnHandlers handlers;
  handlers.on_frame = [this, mc](LoopConn&, const FrameView& fv) { return OnFrame(mc, fv); };
  handlers.on_close = [this, mc](LoopConn&) { OnClose(mc); };
  mc->lc = loop_.AddConn(std::move(sock), std::move(handlers));
  conns_.push_back(mc);
  return mc;
}

bool RemoteDatabase::OnFrame(const std::shared_ptr<MuxConn>& mc, const FrameView& fv) {
  switch (fv.type) {
    case FrameType::kResponse: {
      WireReader r(fv.body);
      ResponseHeader h;
      if (!DecodeResponseHeader(r, &h)) return false;
      RemoteSession* s = nullptr;
      {
        MutexLock lock(mc->mu);
        auto it = mc->sessions.find(h.session_id);
        if (it != mc->sessions.end()) s = it->second;
      }
      // A session unregisters only after draining, so every response finds
      // its owner — and stays valid across this (lock-free) call.
      PARTDB_CHECK(s != nullptr);
      s->OnResponse(h, r);
      return true;
    }
    case FrameType::kMeasureBegun:
    case FrameType::kMetrics: {
      MutexLock lock(ctrl_mu_);
      ctrl_have_ = true;
      ctrl_type_ = fv.type;
      ctrl_body_.assign(fv.body.data(), fv.body.size());
      ctrl_cv_.NotifyAll();
      return true;
    }
    default:
      return false;  // protocol violation
  }
}

void RemoteDatabase::OnClose(const std::shared_ptr<MuxConn>& mc) {
  std::vector<RemoteSession*> sessions;
  {
    MutexLock lock(mc->mu);
    mc->closed = true;
    sessions.reserve(mc->sessions.size());
    for (auto& [id, s] : mc->sessions) sessions.push_back(s);
  }
  for (RemoteSession* s : sessions) s->OnConnClosed();
  // Only the control connection's death fails a control round trip; a
  // secondary connection dying must not wake a ControlRoundTrip waiter into
  // a spurious abort while the control channel is healthy.
  if (mc->is_control) {
    MutexLock lock(ctrl_mu_);
    ctrl_closed_ = true;
    ctrl_cv_.NotifyAll();
  }
}

std::unique_ptr<Session> RemoteDatabase::CreateSession() {
  MutexLock lock(conn_mu_);
  std::shared_ptr<MuxConn> target;
  for (const auto& c : conns_) {
    MutexLock cl(c->mu);
    if (c->closed) continue;
    if (options_.sessions_per_conn == 0 || c->sessions.size() < options_.sessions_per_conn) {
      target = c;
      break;
    }
  }
  if (target == nullptr) {
    // Every existing connection is full: dial another one.
    HelloBody hello;
    target = AdoptConn(DialAndGreet(host_, port_, &hello));
  }
  const int slot = next_session_slot_++;
  MutexLock cl(target->mu);
  const uint32_t id = target->next_session_id++;
  auto session = std::unique_ptr<RemoteSession>(
      new RemoteSession(this, target, id, ClientStreamSeed(options_.seed, slot)));
  target->sessions.emplace(id, session.get());
  return session;
}

size_t RemoteDatabase::conn_count() const {
  MutexLock lock(conn_mu_);
  return conns_.size();
}

ProcId RemoteDatabase::proc(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  PARTDB_CHECK(it != by_name_.end());
  return it->second;
}

const PayloadDecoder* RemoteDatabase::result_decoder(ProcId proc) const {
  PARTDB_CHECK(proc >= 0 && static_cast<size_t>(proc) < result_decoders_.size());
  return result_decoders_[proc] == nullptr ? nullptr : &result_decoders_[proc];
}

std::string RemoteDatabase::ControlRoundTrip(FrameType send, FrameType expect) {
  MutexLock lock(control_mu_);
  std::shared_ptr<MuxConn> control;
  {
    MutexLock cl(conn_mu_);
    PARTDB_CHECK(!conns_.empty());
    control = conns_.front();
  }
  {
    MutexLock cl(ctrl_mu_);
    ctrl_have_ = false;
  }
  PARTDB_CHECK(control->lc->SendFrame(send, [](WireWriter&) {}));
  MutexLock cl(ctrl_mu_);
  while (!ctrl_have_ && !ctrl_closed_) ctrl_cv_.Wait(ctrl_mu_);
  PARTDB_CHECK(ctrl_have_);  // connection died mid round trip
  PARTDB_CHECK(ctrl_type_ == expect);
  return std::move(ctrl_body_);
}

void RemoteDatabase::BeginMeasurement() {
  ControlRoundTrip(FrameType::kBeginMeasure, FrameType::kMeasureBegun);
}

Metrics RemoteDatabase::EndMeasurement() {
  const std::string body = ControlRoundTrip(FrameType::kEndMeasure, FrameType::kMetrics);
  Metrics m;
  PARTDB_CHECK(DecodeMetrics(body, &m));
  return m;
}

}  // namespace partdb

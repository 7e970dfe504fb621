#include "src/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <set>
#include <utility>

#include "src/common/value.h"
#include "src/engine/database.h"

namespace xqjg::server {

namespace {

Result<api::Mode> ModeFromWire(uint8_t wire) {
  switch (wire) {
    case 0:
      return api::Mode::kStacked;
    case 1:
      return api::Mode::kJoinGraph;
    case 2:
      return api::Mode::kNativeWhole;
    case 3:
      return api::Mode::kNativeSegmented;
  }
  return Status::InvalidArgument("unknown mode byte " + std::to_string(wire));
}

/// Decodes one tagged `value` primitive (see protocol.h).
Result<Value> ReadValue(WireReader& reader) {
  XQJG_ASSIGN_OR_RETURN(uint8_t tag, reader.GetU8());
  switch (tag) {
    case 0:
      return Value::Null();
    case 1: {
      XQJG_ASSIGN_OR_RETURN(uint64_t bits, reader.GetU64());
      return Value::Int(static_cast<int64_t>(bits));
    }
    case 2: {
      XQJG_ASSIGN_OR_RETURN(double d, reader.GetF64());
      return Value::Double(d);
    }
    case 3: {
      XQJG_ASSIGN_OR_RETURN(std::string s, reader.GetString());
      return Value::String(std::move(s));
    }
  }
  return Status::InvalidArgument("unknown value tag " + std::to_string(tag));
}

void TouchSession(Session& session) {
  std::lock_guard<std::mutex> lock(session.mu);
  session.last_active = std::chrono::steady_clock::now();
}

bool SessionClosed(Session& session) {
  std::lock_guard<std::mutex> lock(session.mu);
  return session.closed;
}

}  // namespace

Status QueryServer::Start() {
  if (running_.load()) return Status::InvalidArgument("server already running");
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("host must be a numeric IPv4 address: " +
                                   config_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status s =
        Status::Internal(std::string("bind ") + config_.host + ":" +
                         std::to_string(config_.port) + ": " +
                         std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (listen(listen_fd_, 64) < 0) {
    const Status s =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  running_.store(true);
  accept_thread_ = std::thread(&QueryServer::AcceptLoop, this);
  reaper_thread_ = std::thread(&QueryServer::ReaperLoop, this);
  return Status::OK();
}

void QueryServer::Stop() {
  if (!running_.exchange(false)) return;
  // Wake the accept loop (blocked in accept) and the reaper (in wait_for).
  shutdown(listen_fd_, SHUT_RDWR);
  reaper_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (reaper_thread_.joinable()) reaper_thread_.join();
  // Wake every connection thread blocked in ReadFrame.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& [id, fd] : conn_fds_) shutdown(fd, SHUT_RDWR);
  }
  // Join connection threads without holding conn_mu_ (a finishing thread
  // locks it to deregister itself).
  for (;;) {
    std::thread victim;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (conn_threads_.empty()) break;
      auto it = conn_threads_.begin();
      victim = std::move(it->second);
      conn_threads_.erase(it);
    }
    if (victim.joinable()) victim.join();
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    finished_conns_.clear();
  }
  close(listen_fd_);
  listen_fd_ = -1;
}

void QueryServer::AcceptLoop() {
  while (running_.load()) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (Stop) or fatal — exit the loop
    }
    if (!running_.load()) {
      close(fd);
      break;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    // Join connections that already finished so their thread objects
    // don't accumulate across a long-lived server.
    std::vector<std::thread> done;
    uint64_t id;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      for (uint64_t fin : finished_conns_) {
        auto it = conn_threads_.find(fin);
        if (it != conn_threads_.end()) {
          done.push_back(std::move(it->second));
          conn_threads_.erase(it);
        }
      }
      finished_conns_.clear();
      id = next_conn_id_++;
      conn_fds_.emplace(id, fd);
    }
    for (auto& t : done) {
      if (t.joinable()) t.join();
    }
    std::thread worker(&QueryServer::HandleConnection, this, id, fd);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_threads_.emplace(id, std::move(worker));
    }
  }
}

void QueryServer::ReaperLoop() {
  std::unique_lock<std::mutex> lock(reaper_mu_);
  while (running_.load()) {
    reaper_cv_.wait_for(lock, std::chrono::duration<double>(
                                  config_.reap_interval_seconds));
    if (!running_.load()) break;
    const std::vector<uint64_t> reaped =
        sessions_.ReapIdle(config_.idle_timeout_seconds);
    if (reaped.empty()) continue;
    // Wake the reaped sessions' connections: their next (or current,
    // blocked) read fails and the connection thread exits.
    std::lock_guard<std::mutex> conn_lock(conn_mu_);
    for (uint64_t sid : reaped) {
      auto it = session_conns_.find(sid);
      if (it == session_conns_.end()) continue;
      auto fd_it = conn_fds_.find(it->second);
      if (fd_it != conn_fds_.end()) shutdown(fd_it->second, SHUT_RDWR);
      session_conns_.erase(it);
    }
  }
}

Status QueryServer::SendError(int fd, ErrorCode code,
                              const std::string& message) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  return WriteError(fd, code, message);
}

Status QueryServer::SendStatus(int fd, const Status& s) {
  if (s.code() != StatusCode::kBusy) {
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return WriteStatusError(fd, s);
}

void QueryServer::HandleConnection(uint64_t conn_id, int fd) {
  const int one = 1;
  // Request/response over small frames: Nagle only adds latency here.
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::shared_ptr<Session> session;
  // HELLO handshake: must be the first frame.
  do {
    auto frame = ReadFrame(fd, config_.max_frame_bytes);
    if (!frame.ok()) break;
    frames_.fetch_add(1, std::memory_order_relaxed);
    if (frame.value().opcode != Opcode::kHello) {
      SendError(fd, ErrorCode::kProtocol, "first frame must be HELLO");
      break;
    }
    WireReader reader(frame.value().payload);
    uint32_t version = 0;
    {
      auto v = reader.GetU32();
      if (v.ok()) version = v.value();
    }
    if (version != kProtocolVersion) {
      SendError(fd, ErrorCode::kProtocol,
                "protocol version " + std::to_string(version) +
                    " unsupported (server speaks " +
                    std::to_string(kProtocolVersion) + ")");
      break;
    }
    auto created = sessions_.Create(config_.session);
    if (!created.ok()) {
      SendStatus(fd, created.status());
      break;
    }
    session = std::move(created).value();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      session_conns_[session->id] = conn_id;
    }
    WireWriter w;
    w.PutU64(session->id);
    w.PutString("xqjg/" + std::to_string(kProtocolVersion));
    if (!WriteFrame(fd, Opcode::kHelloOk, w.buffer()).ok()) break;

    // Request loop: one frame in, one frame out.
    for (;;) {
      auto request = ReadFrame(fd, config_.max_frame_bytes);
      if (!request.ok()) break;  // EOF, reaper shutdown, or malformed length
      frames_.fetch_add(1, std::memory_order_relaxed);
      if (SessionClosed(*session)) {
        SendError(fd, ErrorCode::kSessionExpired,
                  "session " + std::to_string(session->id) +
                      " was reaped after idling");
        break;
      }
      TouchSession(*session);
      WireReader body(request.value().payload);
      Status io = Status::OK();
      bool goodbye = false;
      switch (request.value().opcode) {
        case Opcode::kPrepare:
          io = HandlePrepare(fd, *session, body);
          break;
        case Opcode::kExecute:
          io = HandleExecute(fd, *session, body);
          break;
        case Opcode::kFetch:
          io = HandleFetch(fd, *session, body);
          break;
        case Opcode::kCloseCursor:
          io = HandleCloseCursor(fd, *session, body);
          break;
        case Opcode::kLoadDoc:
          io = HandleLoadDoc(fd, body);
          break;
        case Opcode::kIndexDdl:
          io = HandleIndexDdl(fd, body);
          break;
        case Opcode::kStats: {
          WireWriter w2;
          w2.PutString(StatsJson());
          io = WriteFrame(fd, Opcode::kStatsOk, w2.buffer());
          break;
        }
        case Opcode::kGoodbye:
          // Close before replying: once the client sees kOk, the
          // session's cursors and pinned snapshots are already gone.
          sessions_.Close(session->id);
          io = WriteFrame(fd, Opcode::kOk, {});
          goodbye = true;
          break;
        case Opcode::kHello:
          io = SendError(fd, ErrorCode::kProtocol, "HELLO after handshake");
          break;
        default:
          io = SendError(fd, ErrorCode::kUnknownOpcode,
                         std::to_string(static_cast<int>(
                             request.value().opcode)));
          break;
      }
      TouchSession(*session);
      if (!io.ok() || goodbye) break;
    }
  } while (false);

  if (session != nullptr) sessions_.Close(session->id);
  close(fd);
  std::lock_guard<std::mutex> lock(conn_mu_);
  conn_fds_.erase(conn_id);
  if (session != nullptr) session_conns_.erase(session->id);
  finished_conns_.push_back(conn_id);
}

Status QueryServer::HandlePrepare(int fd, Session& session,
                                  WireReader& reader) {
  uint8_t mode_byte;
  std::string context_document, query;
  {
    auto m = reader.GetU8();
    auto c = m.ok() ? reader.GetString() : Result<std::string>(m.status());
    auto q = c.ok() ? reader.GetString() : Result<std::string>(c.status());
    if (!q.ok() || !reader.Finish().ok()) {
      return SendError(fd, ErrorCode::kProtocol, "malformed PREPARE payload");
    }
    mode_byte = m.value();
    context_document = std::move(c).value();
    query = std::move(q).value();
  }
  auto mode = ModeFromWire(mode_byte);
  if (!mode.ok()) return SendStatus(fd, mode.status());

  {
    std::lock_guard<std::mutex> lock(session.mu);
    if (static_cast<int>(session.statements.size()) >=
        session.config.max_statements) {
      return SendError(fd, ErrorCode::kQuota,
                       "statement quota (" +
                           std::to_string(session.config.max_statements) +
                           ") reached; close the session or reuse ids");
    }
  }

  api::PrepareOptions options;
  options.mode = mode.value();
  options.context_document = context_document;
  auto prepared = processor_->Prepare(query, options);
  if (!prepared.ok()) return SendStatus(fd, prepared.status());
  const api::PreparedQuery& pq = *prepared.value();

  uint32_t stmt_id;
  {
    std::lock_guard<std::mutex> lock(session.mu);
    if (session.closed) {
      return SendError(fd, ErrorCode::kSessionExpired, "session reaped");
    }
    stmt_id = session.next_statement_id++;
    session.statements.emplace(stmt_id, prepared.value());
  }

  const double est_cost = pq.has_plan ? pq.plan.est_cost : -1.0;
  const QueryClass cls =
      Classify(pq.has_plan, est_cost, admission_.config());
  WireWriter w;
  w.PutU32(stmt_id);
  w.PutU8(static_cast<uint8_t>(cls));
  w.PutU8(pq.has_plan ? 1 : 0);
  w.PutU8(pq.used_fallback ? 1 : 0);
  w.PutF64(est_cost);
  w.PutU32(static_cast<uint32_t>(pq.parameters.size()));
  for (const auto& decl : pq.parameters) {
    w.PutString(decl.name);
    w.PutU8(decl.numeric ? 1 : 0);
  }
  return WriteFrame(fd, Opcode::kPrepareOk, w.buffer());
}

Status QueryServer::HandleExecute(int fd, Session& session,
                                  WireReader& reader) {
  auto stmt_id = reader.GetU32();
  auto flags = stmt_id.ok() ? reader.GetU8() : Result<uint8_t>(stmt_id.status());
  auto n_params = flags.ok() ? reader.GetU32() : Result<uint32_t>(flags.status());
  if (!n_params.ok()) {
    return SendError(fd, ErrorCode::kProtocol, "malformed EXECUTE payload");
  }
  api::ExecuteOptions options;
  options.limits = session.config.limits;
  // `flags` is reserved: every bit is ignored (docs/PROTOCOL.md).
  options.threads = session.config.exec_threads;
  for (uint32_t i = 0; i < n_params.value(); ++i) {
    auto name = reader.GetString();
    if (!name.ok()) {
      return SendError(fd, ErrorCode::kProtocol, "malformed EXECUTE params");
    }
    auto value = ReadValue(reader);
    if (!value.ok()) {
      return SendError(fd, ErrorCode::kProtocol, "malformed EXECUTE params");
    }
    options.parameters[name.value()] = std::move(value).value();
  }
  if (!reader.Finish().ok()) {
    return SendError(fd, ErrorCode::kProtocol, "trailing EXECUTE bytes");
  }

  std::shared_ptr<const api::PreparedQuery> prepared;
  {
    std::lock_guard<std::mutex> lock(session.mu);
    auto it = session.statements.find(stmt_id.value());
    if (it == session.statements.end()) {
      return SendError(fd, ErrorCode::kNotFound,
                       "unknown statement id " +
                           std::to_string(stmt_id.value()));
    }
    if (static_cast<int>(session.cursors.size()) >=
        session.config.max_cursors) {
      return SendError(fd, ErrorCode::kQuota,
                       "cursor quota (" +
                           std::to_string(session.config.max_cursors) +
                           ") reached; CLOSE_CURSOR finished work first");
    }
    prepared = it->second;
  }

  // Admission: classify by the planner's cost estimate and take a slot
  // (or shed). The plan runs — Prime() — while the ticket is held; the
  // fetch phase pulls from the primed result stream and needs no slot
  // (on the pipelined lanes Prime no longer materializes the result, so
  // what the ticket covers is the join work, not the drain).
  const double est_cost = prepared->has_plan ? prepared->plan.est_cost : -1.0;
  const QueryClass cls =
      Classify(prepared->has_plan, est_cost, admission_.config());
  auto ticket = admission_.Admit(cls);
  if (!ticket.ok()) return SendStatus(fd, ticket.status());

  auto cursor = processor_->Execute(prepared, options);
  if (!cursor.ok()) return SendStatus(fd, cursor.status());
  const Status primed = cursor.value()->Prime();
  if (!primed.ok()) return SendStatus(fd, primed);
  ticket.value().Release();

  const int64_t rows_total = cursor.value()->stats().rows_total;
  const double execute_seconds = cursor.value()->stats().execute_seconds;
  uint32_t cursor_id;
  {
    std::lock_guard<std::mutex> lock(session.mu);
    if (session.closed) {
      return SendError(fd, ErrorCode::kSessionExpired, "session reaped");
    }
    cursor_id = session.next_cursor_id++;
    session.cursors.emplace(cursor_id, std::move(cursor).value());
  }
  WireWriter w;
  w.PutU32(cursor_id);
  w.PutU64(static_cast<uint64_t>(rows_total));
  w.PutF64(execute_seconds);
  return WriteFrame(fd, Opcode::kExecuteOk, w.buffer());
}

Status QueryServer::HandleFetch(int fd, Session& session, WireReader& reader) {
  auto cursor_id = reader.GetU32();
  auto max_items =
      cursor_id.ok() ? reader.GetU32() : Result<uint32_t>(cursor_id.status());
  if (!max_items.ok() || !reader.Finish().ok()) {
    return SendError(fd, ErrorCode::kProtocol, "malformed FETCH payload");
  }
  // The session mutex stays held across the fetch: the only contenders
  // are this connection thread and the reaper, and a held mutex reads as
  // "not idle" to the latter (try_lock). Serialization work is bounded
  // by the session's per-fetch wall-clock budget.
  std::lock_guard<std::mutex> lock(session.mu);
  auto it = session.cursors.find(cursor_id.value());
  if (it == session.cursors.end()) {
    return SendError(fd, ErrorCode::kNotFound,
                     "unknown cursor id " + std::to_string(cursor_id.value()) +
                         " (closed or never opened)");
  }
  auto batch = it->second->FetchNext(max_items.value());
  if (!batch.ok()) return SendStatus(fd, batch.status());
  WireWriter w;
  w.PutU8(it->second->exhausted() ? 1 : 0);
  w.PutU32(static_cast<uint32_t>(batch.value().size()));
  for (const auto& item : batch.value()) w.PutString(item);
  return WriteFrame(fd, Opcode::kRows, w.buffer());
}

Status QueryServer::HandleCloseCursor(int fd, Session& session,
                                      WireReader& reader) {
  auto cursor_id = reader.GetU32();
  if (!cursor_id.ok() || !reader.Finish().ok()) {
    return SendError(fd, ErrorCode::kProtocol, "malformed CLOSE payload");
  }
  std::lock_guard<std::mutex> lock(session.mu);
  const size_t erased = session.cursors.erase(cursor_id.value());
  if (erased == 0) {
    // Double-close is a clean protocol error, never a crash: the id is
    // simply no longer (or never was) registered.
    return SendError(fd, ErrorCode::kNotFound,
                     "unknown cursor id " + std::to_string(cursor_id.value()) +
                         " (already closed?)");
  }
  return WriteFrame(fd, Opcode::kOk, {});
}

Status QueryServer::HandleLoadDoc(int fd, WireReader& reader) {
  auto uri = reader.GetString();
  auto xml = uri.ok() ? reader.GetString() : Result<std::string>(uri.status());
  auto n_tags =
      xml.ok() ? reader.GetU32() : Result<uint32_t>(xml.status());
  if (!n_tags.ok()) {
    return SendError(fd, ErrorCode::kProtocol, "malformed LOAD_DOC payload");
  }
  std::set<std::string> tags;
  for (uint32_t i = 0; i < n_tags.value(); ++i) {
    auto tag = reader.GetString();
    if (!tag.ok()) {
      return SendError(fd, ErrorCode::kProtocol, "malformed LOAD_DOC tags");
    }
    tags.insert(std::move(tag).value());
  }
  if (!reader.Finish().ok()) {
    return SendError(fd, ErrorCode::kProtocol, "trailing LOAD_DOC bytes");
  }
  // Rides the processor's copy-on-write snapshot swap: open cursors on
  // other sessions keep draining their pinned snapshots.
  const Status s = processor_->LoadDocument(uri.value(), xml.value(), tags);
  if (!s.ok()) return SendStatus(fd, s);
  return WriteFrame(fd, Opcode::kOk, {});
}

Status QueryServer::HandleIndexDdl(int fd, WireReader& reader) {
  auto action = reader.GetU8();
  if (!action.ok() || !reader.Finish().ok()) {
    return SendError(fd, ErrorCode::kProtocol, "malformed INDEX_DDL payload");
  }
  switch (action.value()) {
    case 0: {
      const Status s = processor_->CreateRelationalIndexes();
      if (!s.ok()) return SendStatus(fd, s);
      break;
    }
    case 1:
      processor_->DropRelationalIndexes();
      break;
    default:
      return SendError(fd, ErrorCode::kProtocol,
                       "unknown INDEX_DDL action " +
                           std::to_string(action.value()));
  }
  return WriteFrame(fd, Opcode::kOk, {});
}

ServerStats QueryServer::stats() const {
  ServerStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.sessions = sessions_.stats();
  s.admission = admission_.stats();
  return s;
}

std::string QueryServer::StatsJson() const {
  const ServerStats s = stats();
  std::string out = "{";
  out += "\"connections\":" + std::to_string(s.connections);
  out += ",\"frames\":" + std::to_string(s.frames);
  out += ",\"errors\":" + std::to_string(s.errors);
  out += ",\"sessions\":{\"created\":" + std::to_string(s.sessions.created) +
         ",\"reaped\":" + std::to_string(s.sessions.reaped) +
         ",\"open\":" + std::to_string(s.sessions.open) +
         ",\"open_cursors\":" + std::to_string(s.sessions.open_cursors) +
         ",\"retained_cursor_bytes\":" +
         std::to_string(s.sessions.retained_cursor_bytes) + "}";
  out += ",\"admission\":{";
  for (int i = 0; i < kNumQueryClasses; ++i) {
    const char* name = QueryClassToString(static_cast<QueryClass>(i));
    if (i > 0) out += ",";
    out += std::string("\"") + name + "\":{";
    out += "\"admitted\":" + std::to_string(s.admission.admitted[i]);
    out += ",\"shed\":" + std::to_string(s.admission.shed[i]);
    out += ",\"running\":" + std::to_string(s.admission.running[i]);
    out += ",\"waiting\":" + std::to_string(s.admission.waiting[i]);
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace xqjg::server

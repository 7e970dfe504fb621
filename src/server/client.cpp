#include "src/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace xqjg::server {

namespace {

void PutValue(WireWriter& w, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      w.PutU8(0);
      return;
    case ValueType::kInt:
      w.PutU8(1);
      w.PutU64(static_cast<uint64_t>(v.AsInt()));
      return;
    case ValueType::kDouble:
      w.PutU8(2);
      w.PutF64(v.AsDouble());
      return;
    case ValueType::kString:
      w.PutU8(3);
      w.PutString(v.AsString());
      return;
  }
}

}  // namespace

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("host must be a numeric IPv4 address: " +
                                   host);
  }
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    const Status s = Status::Internal("connect " + host + ":" +
                                      std::to_string(port) + ": " +
                                      std::strerror(errno));
    close(fd);
    return s;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto client = std::make_unique<Client>(fd);
  auto hello = client->Hello();
  if (!hello.ok()) return hello.status();
  return client;
}

Result<Frame> Client::RoundTrip(Opcode request,
                                const std::vector<uint8_t>& payload,
                                Opcode expected) {
  XQJG_RETURN_NOT_OK(WriteFrame(fd_, request, payload));
  XQJG_ASSIGN_OR_RETURN(Frame response, ReadFrame(fd_));
  if (response.opcode == Opcode::kBusy) {
    WireReader r(response.payload);
    auto msg = r.GetString();
    return Status::Busy(msg.ok() ? msg.value() : "server busy");
  }
  if (response.opcode == Opcode::kError) {
    WireReader r(response.payload);
    auto code = r.GetU8();
    auto msg = code.ok() ? r.GetString() : Result<std::string>(code.status());
    if (!msg.ok()) return Status::Internal("malformed error frame");
    return StatusFromWire(static_cast<ErrorCode>(code.value()), msg.value());
  }
  if (response.opcode != expected) {
    return Status::Internal(
        "unexpected response opcode " +
        std::to_string(static_cast<int>(response.opcode)));
  }
  return response;
}

Result<HelloResult> Client::Hello() {
  WireWriter w;
  w.PutU32(kProtocolVersion);
  XQJG_ASSIGN_OR_RETURN(Frame f,
                        RoundTrip(Opcode::kHello, w.buffer(),
                                  Opcode::kHelloOk));
  WireReader r(f.payload);
  HelloResult result;
  XQJG_ASSIGN_OR_RETURN(result.session_id, r.GetU64());
  XQJG_ASSIGN_OR_RETURN(result.banner, r.GetString());
  session_id_ = result.session_id;
  return result;
}

Result<PrepareResult> Client::Prepare(const std::string& query, uint8_t mode,
                                      const std::string& context_document) {
  WireWriter w;
  w.PutU8(mode);
  w.PutString(context_document);
  w.PutString(query);
  XQJG_ASSIGN_OR_RETURN(
      Frame f, RoundTrip(Opcode::kPrepare, w.buffer(), Opcode::kPrepareOk));
  WireReader r(f.payload);
  PrepareResult result;
  XQJG_ASSIGN_OR_RETURN(result.statement_id, r.GetU32());
  XQJG_ASSIGN_OR_RETURN(result.query_class, r.GetU8());
  XQJG_ASSIGN_OR_RETURN(uint8_t has_plan, r.GetU8());
  result.has_plan = has_plan != 0;
  XQJG_ASSIGN_OR_RETURN(uint8_t fallback, r.GetU8());
  result.used_fallback = fallback != 0;
  XQJG_ASSIGN_OR_RETURN(result.est_cost, r.GetF64());
  XQJG_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  for (uint32_t i = 0; i < n; ++i) {
    XQJG_ASSIGN_OR_RETURN(std::string name, r.GetString());
    XQJG_ASSIGN_OR_RETURN(uint8_t numeric, r.GetU8());
    result.parameters.emplace_back(std::move(name), numeric != 0);
  }
  return result;
}

Result<ExecuteResult> Client::Execute(
    uint32_t statement_id, const std::map<std::string, Value>& parameters) {
  WireWriter w;
  w.PutU32(statement_id);
  w.PutU8(0);  // flags: reserved, always 0 (docs/PROTOCOL.md)
  w.PutU32(static_cast<uint32_t>(parameters.size()));
  for (const auto& [name, value] : parameters) {
    w.PutString(name);
    PutValue(w, value);
  }
  XQJG_ASSIGN_OR_RETURN(
      Frame f, RoundTrip(Opcode::kExecute, w.buffer(), Opcode::kExecuteOk));
  WireReader r(f.payload);
  ExecuteResult result;
  XQJG_ASSIGN_OR_RETURN(result.cursor_id, r.GetU32());
  XQJG_ASSIGN_OR_RETURN(uint64_t rows_total, r.GetU64());
  result.rows_total = static_cast<int64_t>(rows_total);
  XQJG_ASSIGN_OR_RETURN(result.execute_seconds, r.GetF64());
  return result;
}

Result<FetchResult> Client::Fetch(uint32_t cursor_id, uint32_t max_items) {
  WireWriter w;
  w.PutU32(cursor_id);
  w.PutU32(max_items);
  XQJG_ASSIGN_OR_RETURN(Frame f,
                        RoundTrip(Opcode::kFetch, w.buffer(), Opcode::kRows));
  WireReader r(f.payload);
  FetchResult result;
  XQJG_ASSIGN_OR_RETURN(uint8_t exhausted, r.GetU8());
  result.exhausted = exhausted != 0;
  XQJG_ASSIGN_OR_RETURN(uint32_t n_items, r.GetU32());
  result.items.reserve(n_items);
  // Bounded by kMaxFrameBytes; the server capped the batch at max_items.
  // xqjg-lint: allow(no-budget-guard): frame-size cap, not a budget clock
  for (uint32_t i = 0; i < n_items; ++i) {
    XQJG_ASSIGN_OR_RETURN(std::string item, r.GetString());
    result.items.push_back(std::move(item));
  }
  return result;
}

Result<std::vector<std::string>> Client::FetchAll(uint32_t cursor_id,
                                                  uint32_t batch_size) {
  std::vector<std::string> all;
  for (;;) {
    XQJG_ASSIGN_OR_RETURN(FetchResult batch, Fetch(cursor_id, batch_size));
    for (auto& item : batch.items) all.push_back(std::move(item));
    if (batch.exhausted) break;
  }
  XQJG_RETURN_NOT_OK(CloseCursor(cursor_id));
  return all;
}

Status Client::CloseCursor(uint32_t cursor_id) {
  WireWriter w;
  w.PutU32(cursor_id);
  return RoundTrip(Opcode::kCloseCursor, w.buffer(), Opcode::kOk).status();
}

Status Client::LoadDocument(const std::string& uri,
                            const std::string& xml_text,
                            const std::set<std::string>& segment_tags) {
  WireWriter w;
  w.PutString(uri);
  w.PutString(xml_text);
  w.PutU32(static_cast<uint32_t>(segment_tags.size()));
  for (const auto& tag : segment_tags) w.PutString(tag);
  return RoundTrip(Opcode::kLoadDoc, w.buffer(), Opcode::kOk).status();
}

Status Client::IndexDdl(uint8_t action) {
  WireWriter w;
  w.PutU8(action);
  return RoundTrip(Opcode::kIndexDdl, w.buffer(), Opcode::kOk).status();
}

Result<std::string> Client::ServerStats() {
  XQJG_ASSIGN_OR_RETURN(Frame f,
                        RoundTrip(Opcode::kStats, {}, Opcode::kStatsOk));
  WireReader r(f.payload);
  return r.GetString();
}

Status Client::Goodbye() {
  return RoundTrip(Opcode::kGoodbye, {}, Opcode::kOk).status();
}

}  // namespace xqjg::server

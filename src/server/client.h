// Client — a blocking wire-protocol client for QueryServer.
//
// One Client wraps one connection (and therefore one server session).
// Methods mirror the protocol's request/response pairs one-to-one; a
// server-side kError frame comes back as the equivalent Status
// (StatusFromWire) and a kBusy frame as Status::Busy — admission
// shedding is a first-class, retryable outcome, not an exception.
//
// Not thread-safe: the protocol is strictly one request in flight per
// connection, so share nothing or open one Client per thread (the load
// driver in bench/serving_load.cpp does exactly that).
#ifndef XQJG_SERVER_CLIENT_H_
#define XQJG_SERVER_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/server/protocol.h"

namespace xqjg::server {

struct HelloResult {
  uint64_t session_id = 0;
  std::string banner;
};

struct PrepareResult {
  uint32_t statement_id = 0;
  uint8_t query_class = 0;  ///< QueryClass the server will admit this as
  bool has_plan = false;
  bool used_fallback = false;
  double est_cost = -1.0;
  /// name → declared-numeric, in slot order.
  std::vector<std::pair<std::string, bool>> parameters;
};

struct ExecuteResult {
  uint32_t cursor_id = 0;
  /// -1 = unknown (the wire's reserved value; the server primes every
  /// cursor before replying, so it sends the cardinality).
  int64_t rows_total = -1;
  double execute_seconds = 0.0;
};

struct FetchResult {
  bool exhausted = false;
  std::vector<std::string> items;
};

class Client {
 public:
  /// Takes ownership of a connected socket (tests that hand-craft frames
  /// use this directly).
  explicit Client(int fd) : fd_(fd) {}
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to a numeric IPv4 host:port and completes the HELLO
  /// handshake.
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 int port);

  /// The HELLO handshake (Connect already ran it).
  Result<HelloResult> Hello();

  Result<PrepareResult> Prepare(const std::string& query, uint8_t mode,
                                const std::string& context_document);
  Result<ExecuteResult> Execute(
      uint32_t statement_id,
      const std::map<std::string, Value>& parameters = {});
  Result<FetchResult> Fetch(uint32_t cursor_id, uint32_t max_items);
  /// Fetch until exhausted, then CLOSE_CURSOR.
  Result<std::vector<std::string>> FetchAll(uint32_t cursor_id,
                                            uint32_t batch_size = 256);
  Status CloseCursor(uint32_t cursor_id);

  Status LoadDocument(const std::string& uri, const std::string& xml_text,
                      const std::set<std::string>& segment_tags = {});
  /// action 0 creates the default (Table VI) relational index set,
  /// action 1 drops it.
  Status IndexDdl(uint8_t action);
  Result<std::string> ServerStats();
  /// Polite shutdown; the server acknowledges and closes.
  Status Goodbye();

  uint64_t session_id() const { return session_id_; }

 private:
  /// One round trip; kError/kBusy frames become the equivalent Status,
  /// and the response opcode must match `expected`.
  Result<Frame> RoundTrip(Opcode request,
                          const std::vector<uint8_t>& payload,
                          Opcode expected);

  int fd_;
  uint64_t session_id_ = 0;
};

}  // namespace xqjg::server

#endif  // XQJG_SERVER_CLIENT_H_

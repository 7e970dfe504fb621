// Sessions: per-connection server-side state, with idle reaping.
//
// A Session is a first-class object owning the statements a client
// PREPAREd and the cursors its EXECUTEs opened, plus the per-session
// execution limits every statement runs under. All sessions share one
// XQueryProcessor (and therefore one PlanCache and one catalog snapshot
// chain); what a session owns is exactly the state a disconnect or idle
// reap must release — open cursors pin catalog snapshots, so abandoning
// them would pin memory for documents the catalog has since replaced.
//
// Locking: SessionManager::mu_ guards the id→session map; each Session's
// own mu guards its statement/cursor tables and is held by whichever
// thread is acting on the session (its connection thread, or the reaper
// tearing it down). The reaper marks a session closed and clears its
// state under that mutex; a connection thread that finds its session
// closed answers kSessionExpired instead of touching freed state.
#ifndef XQJG_SERVER_SESSION_H_
#define XQJG_SERVER_SESSION_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/api/cursor.h"
#include "src/api/prepared_query.h"
#include "src/engine/exec_options.h"

namespace xqjg::server {

struct SessionConfig {
  /// Execution limits applied to every statement the session runs
  /// (per-fetch wall clock + intermediate-row cap — the cooperative DNF
  /// budgets of the engine).
  engine::ExecLimits limits;
  /// Open-cursor and prepared-statement quotas; exceeding either is a
  /// kQuota protocol error, not a hidden eviction.
  int max_cursors = 8;
  int max_statements = 64;
  /// Morsel workers per execution.
  int exec_threads = 1;
};

/// One client session. Public state is guarded by `mu` (see file
/// comment); the immutable fields (id, config) are lock-free reads.
struct Session {
  Session(uint64_t id_in, const SessionConfig& config_in)
      : id(id_in), config(config_in) {}

  const uint64_t id;
  const SessionConfig config;

  std::mutex mu;
  /// Guarded by mu from here down.
  std::chrono::steady_clock::time_point last_active =
      std::chrono::steady_clock::now();
  bool closed = false;
  uint32_t next_statement_id = 1;
  uint32_t next_cursor_id = 1;
  std::map<uint32_t, std::shared_ptr<const api::PreparedQuery>> statements;
  std::map<uint32_t, std::unique_ptr<api::ResultCursor>> cursors;
};

struct SessionManagerStats {
  int64_t created = 0;
  int64_t reaped = 0;
  int open = 0;
  /// Open cursors across live sessions, and the tracked bytes they still
  /// retain (stream state + pull buffers + undelivered native items) —
  /// the observable for "an open cursor holds O(batch), not O(result)".
  int open_cursors = 0;
  int64_t retained_cursor_bytes = 0;
};

/// Thread-safe registry of live sessions. Creation enforces the server's
/// session cap; Close() is idempotent (connection teardown and the idle
/// reaper may race to it).
class SessionManager {
 public:
  explicit SessionManager(int max_sessions) : max_sessions_(max_sessions) {}

  /// Status::Busy at the session cap — the server maps it to a BUSY
  /// frame, the connection-level analogue of admission shedding.
  Result<std::shared_ptr<Session>> Create(const SessionConfig& config);

  std::shared_ptr<Session> Find(uint64_t id);

  /// Marks the session closed and releases its statements and cursors.
  /// Safe to call twice; safe to call while the connection thread holds
  /// a reference (it observes `closed` under the session mutex).
  void Close(uint64_t id);

  /// Closes every session idle for at least `idle_seconds` and returns
  /// their ids (the server shuts down the matching connections so their
  /// blocked reads wake up). A session whose mutex is held is mid-request
  /// and therefore not idle — the reaper skips it rather than block.
  std::vector<uint64_t> ReapIdle(double idle_seconds);

  SessionManagerStats stats() const;

 private:
  void CloseLocked(const std::shared_ptr<Session>& session);

  const int max_sessions_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  int64_t created_ = 0;
  int64_t reaped_ = 0;
};

}  // namespace xqjg::server

#endif  // XQJG_SERVER_SESSION_H_

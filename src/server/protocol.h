// Wire protocol for the query server: length-prefixed binary frames.
//
// Frame layout (all integers little-endian):
//
//   u32 length   — byte count of opcode + payload (not the length itself)
//   u8  opcode   — see Opcode
//   ...payload   — opcode-specific, built from the primitives below
//
// Primitives: u8 / u32 / u64 / f64 (IEEE-754 bits) raw little-endian;
// `str` is u32 byte length + bytes (UTF-8, no terminator); `value` is a
// u8 type tag (0 null, 1 int64, 2 double, 3 string) followed by the
// payload for that tag. Frames larger than the server's configured
// maximum are rejected before the payload is read — a malformed length
// cannot make the server allocate unbounded memory.
//
// The protocol is strictly request/response over one connection: the
// client writes one request frame, the server writes exactly one
// response frame. There is no pipelining and no server push, which keeps
// the session state machine trivial (docs/PROTOCOL.md specifies every
// payload).
#ifndef XQJG_SERVER_PROTOCOL_H_
#define XQJG_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace xqjg::server {

/// Protocol revision negotiated by HELLO. Bumped on any frame-layout
/// change; the server rejects clients with a different version.
inline constexpr uint32_t kProtocolVersion = 1;

/// Hard ceiling on the frame size any conforming peer may send; servers
/// may configure a lower limit. 64 MiB comfortably holds a loaded
/// document while bounding what a hostile length prefix can demand.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Request opcodes occupy 0x01–0x7F, responses 0x80–0xFF. A response's
/// meaning depends on the request it answers (kRows answers kFetch).
enum class Opcode : uint8_t {
  // ---- requests ----
  kHello = 0x01,        ///< u32 version — must open every connection
  kPrepare = 0x02,      ///< u8 mode, str context_document, str query
  kExecute = 0x03,      ///< u32 stmt_id, u8 flags, u32 n, n × (str, value)
  kFetch = 0x04,        ///< u32 cursor_id, u32 max_items
  kCloseCursor = 0x05,  ///< u32 cursor_id
  kLoadDoc = 0x06,      ///< str uri, str xml, u32 n_tags, n × str
  kIndexDdl = 0x07,     ///< u8 action (0 create default indexes, 1 drop)
  kStats = 0x08,        ///< (empty)
  kGoodbye = 0x09,      ///< (empty) — server answers kOk then closes
  // ---- responses ----
  kOk = 0x80,         ///< (empty)
  kHelloOk = 0x81,    ///< u64 session_id, str banner
  kPrepareOk = 0x82,  ///< u32 stmt_id, u8 query_class, u8 has_plan,
                      ///< u8 used_fallback, f64 est_cost,
                      ///< u32 n_params, n × (str name, u8 numeric)
  kExecuteOk = 0x83,  ///< u32 cursor_id, i64 rows_total (-1 = unknown;
                      ///< a primed cursor always knows it), f64 exec_seconds
  kRows = 0x84,       ///< u8 exhausted, u32 n, n × str
  kStatsOk = 0x85,    ///< str json
  kError = 0xE0,      ///< u8 code (ErrorCode), str message
  kBusy = 0xE1,       ///< str message — admission shed; retry later
};

/// Wire error codes. 1–6 mirror StatusCode one-to-one so a Status crosses
/// the wire losslessly; 100+ are protocol-level conditions that have no
/// engine Status equivalent.
enum class ErrorCode : uint8_t {
  kInvalidArgument = 1,
  kParseError = 2,
  kNotSupported = 3,
  kInternal = 4,
  kNotFound = 5,
  kTimeout = 6,
  kProtocol = 100,        ///< malformed frame or out-of-order request
  kUnknownOpcode = 101,   ///< request opcode the server does not know
  kSessionExpired = 102,  ///< the idle reaper closed this session
  kQuota = 103,           ///< per-session statement/cursor cap reached
};

/// Maps an engine Status onto the wire (never called with OK or Busy —
/// Busy has its own frame).
ErrorCode ErrorCodeFromStatus(const Status& s);

/// Reconstructs a client-side Status from a wire error. Protocol-level
/// codes come back as Internal/InvalidArgument with the code named in
/// the message.
Status StatusFromWire(ErrorCode code, const std::string& message);

/// One parsed frame: opcode plus raw payload bytes.
struct Frame {
  Opcode opcode = Opcode::kError;
  std::vector<uint8_t> payload;
};

/// Serializes payload primitives into a byte buffer.
class WireWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutF64(double v);
  void PutString(const std::string& s);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader over a received payload. Every getter returns
/// an error instead of reading past the end, and Finish() rejects
/// trailing garbage — a truncated or oversized payload is a clean
/// protocol error, never undefined behavior.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<double> GetF64();
  Result<std::string> GetString();

  size_t remaining() const { return size_ - pos_; }
  /// Error if any bytes remain unconsumed.
  Status Finish() const;

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Reads one frame from `fd` (blocking, EINTR-safe). NotFound signals
/// orderly EOF before any byte of a frame; any other partial read is an
/// Internal error. `max_frame_bytes` rejects oversized length prefixes
/// before the payload transfers.
Result<Frame> ReadFrame(int fd, uint32_t max_frame_bytes = kMaxFrameBytes);

/// Writes one frame to `fd` (blocking, EINTR-safe, SIGPIPE suppressed).
Status WriteFrame(int fd, Opcode opcode, const std::vector<uint8_t>& payload);

/// Convenience: kError frame payload.
Status WriteError(int fd, ErrorCode code, const std::string& message);
/// Convenience: maps the Status onto the right frame — kBusy for
/// StatusCode::kBusy, kError otherwise.
Status WriteStatusError(int fd, const Status& s);

}  // namespace xqjg::server

#endif  // XQJG_SERVER_PROTOCOL_H_

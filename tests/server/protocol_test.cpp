// Wire primitives: writer/reader round trips, bounds checking, and the
// frame layer over a real socketpair.
#include "src/server/protocol.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "src/server/client.h"

namespace xqjg::server {
namespace {

TEST(WireTest, PrimitivesRoundTrip) {
  WireWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutF64(-12.5);
  w.PutString("hello");
  w.PutString("");  // empty strings are legal

  WireReader r(w.buffer());
  EXPECT_EQ(r.GetU8().value(), 0xAB);
  EXPECT_EQ(r.GetU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetF64().value(), -12.5);
  EXPECT_EQ(r.GetString().value(), "hello");
  EXPECT_EQ(r.GetString().value(), "");
  EXPECT_TRUE(r.Finish().ok());
}

TEST(WireTest, TruncatedPayloadIsACleanError) {
  WireWriter w;
  w.PutU32(7);
  WireReader r(w.buffer());
  ASSERT_TRUE(r.GetU32().ok());
  // Every getter past the end fails instead of reading out of bounds.
  EXPECT_FALSE(r.GetU8().ok());
  EXPECT_FALSE(r.GetU32().ok());
  EXPECT_FALSE(r.GetU64().ok());
  EXPECT_FALSE(r.GetString().ok());
}

TEST(WireTest, StringLengthBeyondPayloadIsRejected) {
  // A string header claiming more bytes than the payload holds must not
  // read past the buffer.
  WireWriter w;
  w.PutU32(1000);  // length prefix with no bytes behind it
  WireReader r(w.buffer());
  EXPECT_FALSE(r.GetString().ok());
}

TEST(WireTest, TrailingBytesAreRejected) {
  WireWriter w;
  w.PutU32(1);
  w.PutU8(0);
  WireReader r(w.buffer());
  ASSERT_TRUE(r.GetU32().ok());
  EXPECT_FALSE(r.Finish().ok());  // the u8 was never consumed
}

TEST(WireTest, StatusMapsAcrossTheWireLosslessly) {
  const Status original = Status::NotFound("no such cursor");
  const ErrorCode code = ErrorCodeFromStatus(original);
  const Status decoded = StatusFromWire(code, original.message());
  EXPECT_EQ(decoded.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.message(), "no such cursor");
}

class FrameTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    close(fds_[0]);
    close(fds_[1]);
  }
  int fds_[2];
};

TEST_F(FrameTest, FramesRoundTripOverASocket) {
  WireWriter w;
  w.PutString("payload");
  ASSERT_TRUE(WriteFrame(fds_[0], Opcode::kPrepare, w.buffer()).ok());
  auto frame = ReadFrame(fds_[1]);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().opcode, Opcode::kPrepare);
  WireReader r(frame.value().payload);
  EXPECT_EQ(r.GetString().value(), "payload");
}

TEST_F(FrameTest, EmptyPayloadFramesWork) {
  ASSERT_TRUE(WriteFrame(fds_[0], Opcode::kGoodbye, {}).ok());
  auto frame = ReadFrame(fds_[1]);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().opcode, Opcode::kGoodbye);
  EXPECT_TRUE(frame.value().payload.empty());
}

TEST_F(FrameTest, CleanEofIsNotFound) {
  close(fds_[0]);
  fds_[0] = -1;
  auto frame = ReadFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kNotFound);
  // Re-open a pair so TearDown's close targets a valid fd.
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  close(fds_[1]);
  fds_[1] = fds_[0];
}

TEST_F(FrameTest, OversizedLengthPrefixIsRejectedBeforeTransfer) {
  // Hand-craft a header whose length exceeds the limit; the reader must
  // refuse without waiting for (or allocating) the claimed payload.
  WireWriter header;
  header.PutU32(1024);  // frame claims 1 KiB
  header.PutU8(static_cast<uint8_t>(Opcode::kStats));
  ASSERT_EQ(send(fds_[0], header.buffer().data(), header.buffer().size(), 0),
            static_cast<ssize_t>(header.buffer().size()));
  auto frame = ReadFrame(fds_[1], /*max_frame_bytes=*/16);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FrameTest, BusyStatusBecomesABusyFrame) {
  ASSERT_TRUE(WriteStatusError(fds_[0], Status::Busy("try later")).ok());
  auto frame = ReadFrame(fds_[1]);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().opcode, Opcode::kBusy);
  WireReader r(frame.value().payload);
  EXPECT_EQ(r.GetString().value(), "try later");
}

TEST_F(FrameTest, ClientSendsReservedExecuteFlagsAsZero) {
  // EXECUTE `flags` is reserved (docs/PROTOCOL.md): the client must write
  // 0. The test plays the server on the far end of the socketpair.
  Client client(dup(fds_[0]));
  Result<ExecuteResult> executed = Status::Internal("not run");
  std::thread request([&]() { executed = client.Execute(7); });
  auto frame = ReadFrame(fds_[1]);
  // Answer before any assertion, so the client thread always finishes.
  WireWriter ok;
  ok.PutU32(3);  // cursor id
  ok.PutU64(0);  // rows_total
  ok.PutF64(0);  // exec_seconds
  const Status replied = WriteFrame(fds_[1], Opcode::kExecuteOk, ok.buffer());
  request.join();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(replied.ok()) << replied.ToString();
  EXPECT_EQ(frame.value().opcode, Opcode::kExecute);
  WireReader r(frame.value().payload);
  EXPECT_EQ(r.GetU32().value(), 7u);  // statement id
  EXPECT_EQ(r.GetU8().value(), 0u);   // flags
  EXPECT_EQ(r.GetU32().value(), 0u);  // no parameters
  EXPECT_TRUE(r.Finish().ok());
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_EQ(executed.value().cursor_id, 3u);
}

}  // namespace
}  // namespace xqjg::server

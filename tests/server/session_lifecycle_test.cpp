// Session lifecycle over a real server on loopback: handshake, prepare/
// execute/fetch, cursor close semantics, quotas, idle reaping (and the
// catalog snapshots reaping must release), and graceful shutdown. The CI
// AddressSanitizer job runs this suite — every path here must be
// leak-free even when sessions are torn down with cursors open.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/paper_queries.h"
#include "src/api/processor.h"
#include "src/data/xmark.h"
#include "src/server/client.h"
#include "src/server/server.h"

namespace xqjg::server {
namespace {

class SessionLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::XmarkOptions xmark;
    xmark.scale = 0.1;
    ASSERT_TRUE(processor_
                    .LoadDocument("auction.xml", data::GenerateXmark(xmark),
                                  api::XmarkSegmentTags())
                    .ok());
    ASSERT_TRUE(processor_.CreateRelationalIndexes().ok());
  }

  void StartServer(const ServerConfig& config) {
    server_ = std::make_unique<QueryServer>(&processor_, config);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  Result<std::unique_ptr<Client>> Connect() {
    return Client::Connect("127.0.0.1", server_->port());
  }

  api::XQueryProcessor processor_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(SessionLifecycleTest, PrepareExecuteFetchRoundTrip) {
  StartServer(ServerConfig{});
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_GT(client.value()->session_id(), 0u);

  auto prepared = client.value()->Prepare(
      "//closed_auction[price > 50.0]/price/text()",
      /*mode=joingraph*/ 1, "auction.xml");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_TRUE(prepared.value().has_plan);

  auto executed = client.value()->Execute(prepared.value().statement_id);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();

  auto items = client.value()->FetchAll(executed.value().cursor_id);
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  EXPECT_EQ(items.value().size(), executed.value().rows_total);

  // The served result must equal the embedded API's answer.
  api::RunOptions run;
  run.context_document = "auction.xml";
  auto oracle =
      processor_.Run("//closed_auction[price > 50.0]/price/text()", run);
  ASSERT_TRUE(oracle.ok());
  ASSERT_FALSE(oracle.value().items.empty());  // a real answer, not 0 == 0
  EXPECT_EQ(items.value(), oracle.value().items);

  EXPECT_TRUE(client.value()->Goodbye().ok());
}

TEST_F(SessionLifecycleTest, ParameterizedStatementsServeEveryMode) {
  StartServer(ServerConfig{});
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  const std::string query =
      "declare variable $minprice as xs:decimal external; "
      "//closed_auction[price > $minprice]/price/text()";
  // Every mode executes the same parameterized statement over the wire —
  // including the native lanes (the PR 8 carry-over fix).
  for (uint8_t mode = 0; mode <= 3; ++mode) {
    auto prepared = client.value()->Prepare(query, mode, "auction.xml");
    ASSERT_TRUE(prepared.ok())
        << "mode " << int(mode) << ": " << prepared.status().ToString();
    ASSERT_EQ(prepared.value().parameters.size(), 1u);
    EXPECT_EQ(prepared.value().parameters[0].first, "minprice");
    std::map<std::string, Value> params;
    params["minprice"] = Value::Double(50.0);
    auto executed =
        client.value()->Execute(prepared.value().statement_id, params);
    ASSERT_TRUE(executed.ok())
        << "mode " << int(mode) << ": " << executed.status().ToString();
    auto items = client.value()->FetchAll(executed.value().cursor_id);
    ASSERT_TRUE(items.ok());
    api::RunOptions run;
    run.mode = static_cast<api::Mode>(mode);
    run.context_document = "auction.xml";
    auto oracle =
        processor_.Run("//closed_auction[price > 50.0]/price/text()", run);
    ASSERT_TRUE(oracle.ok());
    ASSERT_FALSE(oracle.value().items.empty());
    EXPECT_EQ(items.value(), oracle.value().items) << "mode " << int(mode);
  }
}

TEST_F(SessionLifecycleTest, DoubleCloseAndFetchAfterCloseAreCleanErrors) {
  StartServer(ServerConfig{});
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto prepared =
      client.value()->Prepare("//item/name", 1, "auction.xml");
  ASSERT_TRUE(prepared.ok());
  auto executed = client.value()->Execute(prepared.value().statement_id);
  ASSERT_TRUE(executed.ok());
  const uint32_t cursor = executed.value().cursor_id;

  ASSERT_TRUE(client.value()->CloseCursor(cursor).ok());
  // Double close: a NotFound protocol error, and the connection lives on.
  const Status again = client.value()->CloseCursor(cursor);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kNotFound);
  // Fetch after close: same contract.
  auto fetched = client.value()->Fetch(cursor, 8);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kNotFound);
  // The session is still healthy after both errors.
  auto ok_prepare = client.value()->Prepare("//item", 1, "auction.xml");
  EXPECT_TRUE(ok_prepare.ok());
}

TEST_F(SessionLifecycleTest, UnknownStatementAndBadModeAreCleanErrors) {
  StartServer(ServerConfig{});
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto executed = client.value()->Execute(/*statement_id=*/12345);
  ASSERT_FALSE(executed.ok());
  EXPECT_EQ(executed.status().code(), StatusCode::kNotFound);
  auto prepared = client.value()->Prepare("//item", /*mode=*/9, "auction.xml");
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kInvalidArgument);
  // A parse error crosses the wire as ParseError, not a dropped link.
  auto bad = client.value()->Prepare("//[[[", 1, "auction.xml");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
}

TEST_F(SessionLifecycleTest, CursorQuotaIsEnforced) {
  ServerConfig config;
  config.session.max_cursors = 2;
  StartServer(config);
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto prepared = client.value()->Prepare("//item", 1, "auction.xml");
  ASSERT_TRUE(prepared.ok());
  auto c1 = client.value()->Execute(prepared.value().statement_id);
  auto c2 = client.value()->Execute(prepared.value().statement_id);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  auto c3 = client.value()->Execute(prepared.value().statement_id);
  ASSERT_FALSE(c3.ok());  // kQuota → InvalidArgument client-side
  // Closing one frees the quota.
  ASSERT_TRUE(client.value()->CloseCursor(c1.value().cursor_id).ok());
  auto c4 = client.value()->Execute(prepared.value().statement_id);
  EXPECT_TRUE(c4.ok());
}

TEST_F(SessionLifecycleTest, SessionCapShedsWithBusy) {
  ServerConfig config;
  config.max_sessions = 1;
  StartServer(config);
  auto first = Connect();
  ASSERT_TRUE(first.ok());
  auto second = Connect();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kBusy);
  // Closing the first session admits a new one.
  ASSERT_TRUE(first.value()->Goodbye().ok());
  // The server tears the session down asynchronously after GOODBYE;
  // poll briefly instead of racing it.
  bool admitted = false;
  for (int i = 0; i < 100 && !admitted; ++i) {
    auto third = Connect();
    admitted = third.ok();
    if (!admitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(admitted);
}

TEST_F(SessionLifecycleTest, IdleReaperReleasesCursorsAndPinnedSnapshots) {
  ServerConfig config;
  config.idle_timeout_seconds = 0.2;
  config.reap_interval_seconds = 0.05;
  StartServer(config);
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto prepared = client.value()->Prepare("//item", 1, "auction.xml");
  ASSERT_TRUE(prepared.ok());
  auto executed = client.value()->Execute(prepared.value().statement_id);
  ASSERT_TRUE(executed.ok());

  // The open cursor pins the snapshot it executed against. Mutate the
  // catalog so that snapshot stops being current — only the session's
  // cursor (and the plan-cache entry) keeps it alive now.
  std::weak_ptr<const api::CatalogSnapshot> pinned = processor_.snapshot();
  data::XmarkOptions bigger;
  bigger.scale = 0.15;
  ASSERT_TRUE(
      processor_.LoadDocument("auction.xml", data::GenerateXmark(bigger))
          .ok());
  processor_.ClearPlanCache();  // drop the cache's share of the snapshot
  ASSERT_FALSE(pinned.expired());  // the abandoned cursor still pins it

  // Go idle past the timeout: the reaper must close the session, free
  // the cursor, and thereby release the last pin on the old snapshot.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pinned.expired() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(pinned.expired());
  EXPECT_GE(server_->stats().sessions.reaped, 1);

  // The reaped session's connection answers with a clean expiry (or the
  // reaper already shut the socket down) — never a crash.
  auto after = client.value()->Prepare("//item", 1, "auction.xml");
  EXPECT_FALSE(after.ok());
}

TEST_F(SessionLifecycleTest, StopWithLiveConnectionsShutsDownGracefully) {
  StartServer(ServerConfig{});
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto prepared = client.value()->Prepare("//item", 1, "auction.xml");
  ASSERT_TRUE(prepared.ok());
  auto executed = client.value()->Execute(prepared.value().statement_id);
  ASSERT_TRUE(executed.ok());  // leave the cursor open across Stop
  server_->Stop();  // joins every thread, closes every session
  EXPECT_EQ(server_->stats().sessions.open, 0);
  // The dropped connection surfaces as an error on the next request.
  auto after = client.value()->Fetch(executed.value().cursor_id, 1);
  EXPECT_FALSE(after.ok());
}

TEST_F(SessionLifecycleTest, ReservedExecuteFlagBitsAreIgnored) {
  // A v1 client may still set EXECUTE flag bit 0 (it once chose the
  // columnar executor). The bits are reserved now: a hand-framed EXECUTE
  // with any of them set returns the same items as flags = 0.
  StartServer(ServerConfig{});
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  Client client(fd);  // owns fd; the test also writes raw frames on it
  ASSERT_TRUE(client.Hello().ok());
  auto prepared = client.Prepare(
      "//closed_auction[price > 50.0]/price/text()", /*mode=joingraph*/ 1,
      "auction.xml");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto executed = client.Execute(prepared.value().statement_id);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  auto expected = client.FetchAll(executed.value().cursor_id);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_FALSE(expected.value().empty());

  for (uint8_t flags : {uint8_t{0x1}, uint8_t{0xFF}}) {
    WireWriter w;
    w.PutU32(prepared.value().statement_id);
    w.PutU8(flags);
    w.PutU32(0);  // no parameters
    ASSERT_TRUE(WriteFrame(fd, Opcode::kExecute, w.buffer()).ok());
    auto frame = ReadFrame(fd);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame.value().opcode, Opcode::kExecuteOk)
        << "flags " << int(flags);
    WireReader r(frame.value().payload);
    auto cursor_id = r.GetU32();
    ASSERT_TRUE(cursor_id.ok());
    auto items = client.FetchAll(cursor_id.value());
    ASSERT_TRUE(items.ok()) << items.status().ToString();
    EXPECT_EQ(items.value(), expected.value()) << "flags " << int(flags);
  }
}

TEST_F(SessionLifecycleTest, StatsReportTraffic) {
  StartServer(ServerConfig{});
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto prepared = client.value()->Prepare("//item", 1, "auction.xml");
  ASSERT_TRUE(prepared.ok());
  auto stats = client.value()->ServerStats();
  ASSERT_TRUE(stats.ok());
  // Sanity: the JSON mentions the session and admission sections.
  EXPECT_NE(stats.value().find("\"sessions\""), std::string::npos);
  EXPECT_NE(stats.value().find("\"admission\""), std::string::npos);
  EXPECT_EQ(server_->stats().sessions.open, 1);
}

}  // namespace
}  // namespace xqjg::server

// Pipelined cursor delivery: O(batch) retained state and fetch-time
// accounting.
//
// Execute on the columnar lanes opens a live SequenceStream instead of
// materializing the result: the expensive work (through the final sort
// breaker) happens in Prime, and the drain — run merge, item pulls,
// serialization — happens batch by batch inside FetchNext. Two contracts
// are pinned here over a result big enough to matter (100k items):
//
//   * an open, undrained cursor retains tracked memory proportional to
//     the budget/batch, not to the result — compared directly against a
//     cursor over the same query with no memory budget, whose final sort
//     breaker holds the whole result in memory — and knows the result
//     cardinality at Prime, on the stacked and the join-graph lane alike;
//   * a fetch that times out still accrues its wall time into
//     stats().fetch_seconds (regression: the old FetchNext added the
//     elapsed time only on the success path, so timed-out fetches did
//     invisible work).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/api/processor.h"
#include "src/engine/exec_options.h"

namespace xqjg {
namespace {

constexpr int64_t kBigRows = 100000;
constexpr int64_t kMidRows = 20000;

std::string FlatDoc(int64_t n) {
  std::string xml = "<root>";
  for (int64_t i = 0; i < n; ++i) {
    xml += "<x>";
    xml += std::to_string(i);
    xml += "</x>";
  }
  xml += "</root>";
  return xml;
}

class CursorStreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    processor_ = new api::XQueryProcessor();
    ASSERT_TRUE(processor_->LoadDocument("big.xml", FlatDoc(kBigRows)).ok());
    ASSERT_TRUE(processor_->LoadDocument("mid.xml", FlatDoc(kMidRows)).ok());
  }
  static void TearDownTestSuite() {
    delete processor_;
    processor_ = nullptr;
  }

  static Result<std::shared_ptr<const api::PreparedQuery>> Prepare(
      const std::string& doc, api::Mode mode = api::Mode::kStacked) {
    api::PrepareOptions prep;
    prep.mode = mode;
    prep.context_document = doc;
    return processor_->Prepare("doc(\"" + doc + "\")//x", prep);
  }

  static void CheckRetainsBatchNotResult(api::Mode mode);

  static api::XQueryProcessor* processor_;
};

api::XQueryProcessor* CursorStreamTest::processor_ = nullptr;

TEST_F(CursorStreamTest, OpenCursorRetainsBatchNotResult) {
  for (api::Mode mode : {api::Mode::kStacked, api::Mode::kJoinGraph}) {
    SCOPED_TRACE(api::ModeToString(mode));
    CheckRetainsBatchNotResult(mode);
  }
}

void CursorStreamTest::CheckRetainsBatchNotResult(api::Mode mode) {
  auto pq = Prepare("big.xml", mode);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();

  // The unbudgeted execution is both the items oracle and the memory
  // baseline: its cursor retains the entire sorted result in memory.
  auto oracle = processor_->Execute(pq.value(), api::ExecuteOptions{});
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_TRUE(oracle.value()->Prime().ok());
  const int64_t materialized_retained =
      oracle.value()->retained_memory_bytes();
  EXPECT_GE(materialized_retained, kBigRows * 8);
  auto oracle_items = oracle.value()->FetchAll();
  ASSERT_TRUE(oracle_items.ok()) << oracle_items.status().ToString();
  ASSERT_EQ(static_cast<int64_t>(oracle_items.value().size()), kBigRows);

  api::ExecuteOptions exec;
  exec.limits.max_memory_bytes = 128 * 1024;
  auto cursor = processor_->Execute(pq.value(), exec);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  ASSERT_TRUE(cursor.value()->Prime().ok());
  // The lane is primed through its final breaker, so cardinality is
  // known before the first fetch…
  EXPECT_EQ(cursor.value()->stats().rows_total, kBigRows);
  // …and the breaker actually went external at this budget: the drain
  // below exercises the run merge, not a buffered fast path.
  ASSERT_GT(cursor.value()->stats().engine.spill_events, 0);

  // O(batch), enforced against the baseline and in absolute terms: far
  // below the 800 KB the unbudgeted cursor retains for the same result.
  const int64_t bound = kBigRows * 8 / 2;
  EXPECT_LT(cursor.value()->retained_memory_bytes(), bound);
  EXPECT_LT(cursor.value()->retained_memory_bytes(), materialized_retained);

  std::vector<std::string> drained;
  int64_t high_water = 0;
  while (!cursor.value()->exhausted()) {
    auto batch = cursor.value()->FetchNext(1000);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch.value().empty()) break;
    for (auto& item : batch.value()) drained.push_back(std::move(item));
    high_water =
        std::max(high_water, cursor.value()->retained_memory_bytes());
  }
  EXPECT_LT(high_water, bound) << "retained state grew while draining";
  EXPECT_EQ(drained, oracle_items.value());
  EXPECT_EQ(cursor.value()->stats().rows_fetched, kBigRows);
  EXPECT_TRUE(cursor.value()->exhausted());
}

TEST_F(CursorStreamTest, TimedOutFetchStillAccruesFetchSeconds) {
  auto pq = Prepare("mid.xml");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();

  // The execution deadline is absolute from Execute, so it must outlast
  // Prime — which takes several times longer in Debug and sanitizer
  // builds. Measure Execute + Prime of the same query without a deadline
  // and derive the deadline from it.
  api::ExecuteOptions exec;
  exec.limits.max_memory_bytes = 64 * 1024;
  const auto start = std::chrono::steady_clock::now();
  {
    auto probe = processor_->Execute(pq.value(), exec);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    ASSERT_TRUE(probe.value()->Prime().ok());
  }
  const double prime_seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();

  // Prime comfortably beats the deadline; sleeping past it then asking
  // one fetch to pull the whole 20k-row result sends >4096 rows through
  // the spilled run merge — which checks the deadline once per emitted
  // window, and so notices it expired (the in-memory path only ticks its
  // amortized clock per window, hence the spill-forcing budget).
  exec.limits.timeout_seconds = std::max(1.0, 5 * prime_seconds);
  auto cursor = processor_->Execute(pq.value(), exec);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  ASSERT_TRUE(cursor.value()->Prime().ok());
  ASSERT_GT(cursor.value()->stats().engine.spill_events, 0)
      << "budget did not force a spill; the pull path would not tick";

  std::this_thread::sleep_for(std::chrono::duration<double>(
      exec.limits.timeout_seconds + 0.5));
  auto batch = cursor.value()->FetchNext(static_cast<size_t>(kMidRows));
  ASSERT_FALSE(batch.ok()) << "expected the expired deadline to surface";
  EXPECT_EQ(batch.status().code(), StatusCode::kTimeout)
      << batch.status().ToString();
  // The bugfix under test: the elapsed time of the failed fetch is in
  // fetch_seconds (the old scope lost it on every error return).
  EXPECT_GT(cursor.value()->stats().fetch_seconds, 0.0);
  EXPECT_EQ(cursor.value()->stats().rows_fetched, 0);
}

}  // namespace
}  // namespace xqjg

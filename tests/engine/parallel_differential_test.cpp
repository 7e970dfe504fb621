// Morsel-driven parallel execution: differential and budget coverage.
//
// The columnar executors accept a `threads` knob and split their
// row-producing loops into morsels claimed from a shared counter, with
// per-morsel outputs merged in morsel order — so results must be
// BIT-IDENTICAL at any worker count, to each other and to the native
// interpreter. This suite pins that contract at threads ∈ {1, 2, 8} over the
// paper queries (XMark/DBLP instances) and seeded random documents large
// enough to cross the parallel cutoff, and it regression-tests the
// cooperative DNF budget: a max_intermediate_rows abort must surface
// promptly (and with the row-budget error, not a generic one) even when
// N workers produce rows concurrently. Runs under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/api/paper_queries.h"
#include "src/api/processor.h"
#include "src/data/dblp.h"
#include "src/data/xmark.h"
#include "src/engine/exec_options.h"
#include "tests/testutil/differential.h"
#include "tests/testutil/fixtures.h"

namespace xqjg {
namespace {

const int kThreadCounts[] = {1, 2, 8};

// ---------------------------------------------------------------------------
// RegionBudget / worker-clock unit coverage (satellite: budget-clock race).

TEST(RegionBudget, SerialClockSemanticsAreUnchanged) {
  engine::ExecLimits limits;
  limits.max_intermediate_rows = 10;
  engine::BudgetClock clock(limits);
  EXPECT_TRUE(clock.TickRows(10).ok());
  EXPECT_FALSE(clock.RowsExceeded(10));
  auto st = clock.TickRows(11);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
  EXPECT_NE(st.message().find("exceeds 10 rows"), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(clock.RegionAborted());
}

TEST(RegionBudget, WorkerClocksShareOneRowBudget) {
  engine::ExecLimits limits;
  limits.max_intermediate_rows = 1000;
  engine::BudgetClock parent(limits);
  engine::RegionBudget region(parent);

  // Two workers each produce 600 rows into private containers: neither
  // exceeds the budget alone, together they must. The flush stride means
  // a worker only sees the joint total every 256 rows — drive both past
  // a flush boundary and the second FinishLocalRows must report the
  // joint overrun.
  engine::BudgetClock w1 = region.Worker();
  engine::BudgetClock w2 = region.Worker();
  for (int64_t r = 1; r <= 600; ++r) ASSERT_TRUE(w1.TickRows(r).ok());
  ASSERT_TRUE(w1.FinishLocalRows(600).ok());  // 600 total: under budget
  Status second = Status::OK();
  for (int64_t r = 1; r <= 600 && second.ok(); ++r) {
    second = w2.TickRows(r);
  }
  if (second.ok()) second = w2.FinishLocalRows(600);
  ASSERT_FALSE(second.ok());  // 1200 joint rows > 1000
  EXPECT_EQ(second.code(), StatusCode::kTimeout);
  EXPECT_NE(second.message().find("exceeds 1000 rows"), std::string::npos);
}

TEST(RegionBudget, AbortLatchStopsEveryWorkerAndFirstErrorWins) {
  engine::BudgetClock parent((engine::ExecLimits()));
  engine::RegionBudget region(parent);
  engine::BudgetClock w1 = region.Worker();
  EXPECT_TRUE(w1.Tick().ok());  // nothing aborted yet

  region.Abort(Status::Internal("first"));
  region.Abort(Status::Internal("second"));  // latch is set-once
  auto st = region.status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("first"), std::string::npos);

  // Every worker clock observes the latch on its next Tick.
  engine::BudgetClock w2 = region.Worker();
  EXPECT_TRUE(w1.RegionAborted());
  EXPECT_FALSE(w1.Tick().ok());
  EXPECT_FALSE(w2.Tick().ok());
}

TEST(RegionBudget, ConcurrentWorkersAbortPromptlyAcrossThreads) {
  // The race regression distilled: N real threads hammer one region's
  // joint row counter. The budget must trip (no lost updates letting the
  // joint total run away), every thread must stop, and the error must be
  // the row-budget message. Run under TSan in CI.
  constexpr int kWorkers = 8;
  constexpr int64_t kBudget = 10 * 1000;
  engine::ExecLimits limits;
  limits.max_intermediate_rows = kBudget;
  engine::BudgetClock parent(limits);
  engine::RegionBudget region(parent);

  std::atomic<int64_t> produced{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kWorkers; ++t) {
    pool.emplace_back([&region, &produced]() {
      engine::BudgetClock clock = region.Worker();
      // Each "morsel" produces 512 rows into a fresh local container,
      // mirroring how the executors re-vend worker clocks per morsel.
      for (int morsel = 0; morsel < 64; ++morsel) {
        engine::BudgetClock wclock = region.Worker();
        for (int64_t r = 1; r <= 512; ++r) {
          Status st = wclock.TickRows(r);
          if (!st.ok()) {
            region.Abort(st);
            return;
          }
          produced.fetch_add(1, std::memory_order_relaxed);
        }
        Status st = wclock.FinishLocalRows(512);
        if (!st.ok()) {
          region.Abort(st);
          return;
        }
      }
      (void)clock;
    });
  }
  for (auto& thread : pool) thread.join();

  auto st = region.status();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
  EXPECT_NE(st.message().find("exceeds"), std::string::npos) << st.ToString();
  // Prompt abort: overshoot is bounded by workers × flush stride (256)
  // plus one in-flight morsel (512) per worker — not by total work
  // (8 × 64 × 512 ≈ 262k rows would mean the latch was ignored).
  EXPECT_LT(produced.load(), kBudget + kWorkers * (256 + 512))
      << "workers kept producing after the joint budget tripped";
}

// ---------------------------------------------------------------------------
// End-to-end: paper queries, every relational lane, threads ∈ {1, 2, 8}.

class ParallelPaperQueries : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    processor_ = new api::XQueryProcessor();
    data::XmarkOptions xmark;
    xmark.scale = 0.1;
    ASSERT_TRUE(processor_
                    ->LoadDocument("auction.xml", data::GenerateXmark(xmark),
                                   api::XmarkSegmentTags())
                    .ok());
    data::DblpOptions dblp;
    dblp.publications = 400;
    ASSERT_TRUE(processor_
                    ->LoadDocument("dblp.xml", data::GenerateDblp(dblp),
                                   api::DblpSegmentTags())
                    .ok());
    ASSERT_TRUE(processor_->CreateRelationalIndexes().ok());
  }
  static void TearDownTestSuite() {
    delete processor_;
    processor_ = nullptr;
  }

  static api::XQueryProcessor* processor_;
};

api::XQueryProcessor* ParallelPaperQueries::processor_ = nullptr;

TEST_F(ParallelPaperQueries, EveryThreadCountMatchesTheNativeOracle) {
  for (const auto& q : api::PaperQueries()) {
    // The native interpreter is the oracle; it ignores `threads`.
    api::RunOptions oracle_options;
    oracle_options.timeout_seconds = 120;
    oracle_options.mode = api::Mode::kNativeWhole;
    oracle_options.context_document = q.document;
    auto oracle = processor_->Run(q.text, oracle_options);
    ASSERT_TRUE(oracle.ok()) << q.id << ": " << oracle.status().ToString();

    for (api::Mode mode : {api::Mode::kStacked, api::Mode::kJoinGraph}) {
      for (int threads : kThreadCounts) {
        api::RunOptions options;
        options.timeout_seconds = 120;
        options.mode = mode;
        options.context_document = q.document;
        options.threads = threads;
        auto result = processor_->Run(q.text, options);
        ASSERT_TRUE(result.ok())
            << q.id << " " << api::ModeToString(mode) << " threads="
            << threads << ": " << result.status().ToString();
        EXPECT_EQ(result.value().items, oracle.value().items)
            << q.id << " " << api::ModeToString(mode)
            << " diverges at threads=" << threads;
      }
    }
  }
}

TEST_F(ParallelPaperQueries, RowBudgetAbortsPromptlyAcrossWorkers) {
  // End-to-end satellite regression: a tiny max_intermediate_rows budget
  // must abort a multi-worker columnar execution with the row-budget
  // Timeout — the workers share one joint counter, so N workers cannot
  // each privately stay under a budget they jointly exceed.
  const api::PaperQuery& q2 = api::PaperQueries()[1];
  auto prepared = [&](api::Mode mode) {
    api::PrepareOptions prep;
    prep.mode = mode;
    prep.context_document = q2.document;
    return processor_->Prepare(q2.text, prep);
  };
  for (api::Mode mode : {api::Mode::kStacked, api::Mode::kJoinGraph}) {
    auto pq = prepared(mode);
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    for (int threads : {2, 8}) {
      api::ExecuteOptions exec;
      exec.limits.timeout_seconds = 120;
      // Q2's join-graph plan keeps every intermediate at this scale
      // under 64 rows, so the budget sits below that.
      exec.limits.max_intermediate_rows = 16;
      exec.threads = threads;
      auto result = processor_->ExecuteAll(pq.value(), exec);
      ASSERT_FALSE(result.ok())
          << api::ModeToString(mode) << " threads=" << threads
          << ": expected a row-budget DNF";
      EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
          << result.status().ToString();
      EXPECT_NE(result.status().message().find("rows (DNF)"),
                std::string::npos)
          << result.status().ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized differential: seeded documents big enough to cross the
// executors' parallel cutoff (kParallelRowCutoff = 2048 doc-relation
// rows), every lane × thread count agreeing with the native reference.

class ParallelFuzzSeed : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelFuzzSeed, AllLanesAgreeAtEveryThreadCount) {
  const uint64_t doc_seed = GetParam();
  // ~3000 nodes: comfortably past the 2048-row cutoff, so the morsel
  // paths (not just the serial fallbacks) are what's being compared.
  const std::string xml = testutil::RandomXml(doc_seed, 3000);
  testutil::DifferentialHarness harness("fuzz.xml", xml);
  for (uint64_t q = 0; q < 4; ++q) {
    const uint64_t query_seed = doc_seed * 1013 + q;
    const std::string query = testutil::RandomQuery(query_seed, "fuzz.xml");
    for (int threads : kThreadCounts) {
      EXPECT_TRUE(harness.Check(query, threads))
          << "doc seed " << doc_seed << ", query seed " << query_seed
          << ", threads " << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelFuzzSeed,
                         ::testing::Values(21u, 22u, 23u));

}  // namespace
}  // namespace xqjg

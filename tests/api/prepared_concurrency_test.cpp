// Concurrent execution: N threads share one immutable PreparedQuery per
// paper query (serial and morsel-parallel executions alike) and every
// thread's result must equal the single-threaded oracle. This is the suite the CI
// ThreadSanitizer job runs — any shared mutable state in the execution
// layers surfaces here as a data race or a differential mismatch.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/paper_queries.h"
#include "src/api/processor.h"
#include "src/data/dblp.h"
#include "src/data/xmark.h"

namespace xqjg::api {
namespace {

constexpr int kThreads = 4;

class PreparedConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    processor_ = new XQueryProcessor();
    data::XmarkOptions xmark;
    xmark.scale = 0.1;
    ASSERT_TRUE(processor_
                    ->LoadDocument("auction.xml", data::GenerateXmark(xmark),
                                   XmarkSegmentTags())
                    .ok());
    data::DblpOptions dblp;
    dblp.publications = 400;
    ASSERT_TRUE(processor_
                    ->LoadDocument("dblp.xml", data::GenerateDblp(dblp),
                                   DblpSegmentTags())
                    .ok());
    ASSERT_TRUE(processor_->CreateRelationalIndexes().ok());
  }
  static void TearDownTestSuite() {
    delete processor_;
    processor_ = nullptr;
  }

  static XQueryProcessor* processor_;
};

XQueryProcessor* PreparedConcurrencyTest::processor_ = nullptr;

/// Runs `threads` concurrent ExecuteAll calls over one PreparedQuery and
/// returns every thread's items (empty + recorded error on failure).
struct ThreadOutcome {
  std::vector<std::string> items;
  Status status = Status::OK();
};

std::vector<ThreadOutcome> ExecuteConcurrently(
    const XQueryProcessor& processor,
    const std::shared_ptr<const PreparedQuery>& prepared, int threads,
    bool alternate_workers) {
  std::vector<ThreadOutcome> outcomes(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t]() {
      ExecuteOptions options;
      options.limits.timeout_seconds = 120;
      // Odd threads fan the very same plan out over 8 morsel workers
      // while even threads run it serially.
      options.threads = alternate_workers && (t % 2 == 1) ? 8 : 1;
      auto result = processor.ExecuteAll(prepared, options);
      if (result.ok()) {
        outcomes[static_cast<size_t>(t)].items =
            std::move(result.value().items);
      } else {
        outcomes[static_cast<size_t>(t)].status = result.status();
      }
    });
  }
  for (auto& thread : pool) thread.join();
  return outcomes;
}

class PaperQueryConcurrency
    : public PreparedConcurrencyTest,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(PaperQueryConcurrency, ThreadsShareOnePreparedQueryAndAgree) {
  const PaperQuery* query = nullptr;
  for (const auto& q : PaperQueries()) {
    if (q.id == GetParam()) query = &q;
  }
  ASSERT_NE(query, nullptr);

  PrepareOptions prep;
  prep.mode = Mode::kJoinGraph;
  prep.context_document = query->document;
  auto prepared = processor_->Prepare(query->text, prep);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  // Single-threaded, serial oracle.
  ExecuteOptions oracle_options;
  oracle_options.limits.timeout_seconds = 120;
  auto oracle = processor_->ExecuteAll(prepared.value(), oracle_options);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  auto outcomes = ExecuteConcurrently(*processor_, prepared.value(), kThreads,
                                      /*alternate_workers=*/true);
  for (int t = 0; t < kThreads; ++t) {
    const ThreadOutcome& outcome = outcomes[static_cast<size_t>(t)];
    ASSERT_TRUE(outcome.status.ok())
        << query->id << " thread " << t << ": " << outcome.status.ToString();
    EXPECT_EQ(outcome.items, oracle.value().items)
        << query->id << " thread " << t
        << (t % 2 == 1 ? " (threads=8)" : " (threads=1)");
  }
}

INSTANTIATE_TEST_SUITE_P(PaperQueries, PaperQueryConcurrency,
                         ::testing::Values("Q1", "Q2", "Q3", "Q4", "Q5",
                                           "Q6"),
                         [](const ::testing::TestParamInfo<const char*>& pi) {
                           return std::string(pi.param);
                         });

TEST_F(PreparedConcurrencyTest, StackedAndNativeModesExecuteConcurrently) {
  const PaperQuery& q1 = PaperQueries()[0];
  for (Mode mode : {Mode::kStacked, Mode::kNativeWhole}) {
    PrepareOptions prep;
    prep.mode = mode;
    prep.context_document = q1.document;
    auto prepared = processor_->Prepare(q1.text, prep);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    ExecuteOptions oracle_options;
    oracle_options.limits.timeout_seconds = 120;
    auto oracle = processor_->ExecuteAll(prepared.value(), oracle_options);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    auto outcomes =
        ExecuteConcurrently(*processor_, prepared.value(), kThreads,
                            /*alternate_workers=*/mode == Mode::kStacked);
    for (const ThreadOutcome& outcome : outcomes) {
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
      EXPECT_EQ(outcome.items, oracle.value().items) << ModeToString(mode);
    }
  }
}

TEST_F(PreparedConcurrencyTest, WriterMutatesCatalogUnderLiveCursors) {
  // The snapshot-catalog contract under load (run under TSan in CI): a
  // writer thread loads documents, RE-loads one of them, and re-creates
  // the relational index set, while
  //   (a) open cursors over a join-graph plan keep draining — no drain
  //       requirement, no race, results from their pinned snapshot; and
  //   (b) reader threads run full stacked-mode executions end to end —
  //       stacked plans don't consult the index set and don't touch the
  //       writer's documents, so they stay servable throughout.
  // Afterwards the join-graph artifact is correctly stale (the index set
  // changed) and a re-Prepare serves identical results from the new
  // snapshot — "correct results on both snapshots".
  const PaperQuery& q1 = PaperQueries()[0];
  PrepareOptions jg_prep;
  jg_prep.context_document = q1.document;
  auto jg = processor_->Prepare(q1.text, jg_prep);
  ASSERT_TRUE(jg.ok()) << jg.status().ToString();
  PrepareOptions stacked_prep = jg_prep;
  stacked_prep.mode = Mode::kStacked;
  auto stacked = processor_->Prepare(q1.text, stacked_prep);
  ASSERT_TRUE(stacked.ok()) << stacked.status().ToString();
  ExecuteOptions exec;
  exec.limits.timeout_seconds = 120;
  auto oracle = processor_->ExecuteAll(jg.value(), exec);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  // Open the cursors and run their plans BEFORE the writer starts; the
  // streaming drain then races the catalog mutations.
  std::vector<std::unique_ptr<ResultCursor>> cursors;
  for (int t = 0; t < kThreads; ++t) {
    ExecuteOptions options = exec;
    options.threads = t % 2 == 1 ? 8 : 1;
    auto cursor = processor_->Execute(jg.value(), options);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    auto first = cursor.value()->FetchNext(1);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_EQ(first.value().size(), 1u);
    cursors.push_back(std::move(cursor).value());
  }

  constexpr int kWriterRounds = 6;
  std::vector<ThreadOutcome> outcomes(kThreads);
  Status writer_status = Status::OK();
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      ThreadOutcome& out = outcomes[static_cast<size_t>(t)];
      // Drain the pre-opened join-graph cursor in small batches...
      out.items.push_back(std::string());  // placeholder for batch 1
      while (true) {
        auto batch = cursors[static_cast<size_t>(t)]->FetchNext(16);
        if (!batch.ok()) {
          out.status = batch.status();
          return;
        }
        if (batch.value().empty()) break;
        for (auto& item : batch.value()) out.items.push_back(std::move(item));
      }
      // ...and interleave full stacked executions, which stay servable
      // across every writer mutation.
      for (int round = 0; round < kWriterRounds; ++round) {
        ExecuteOptions options = exec;
        options.threads = t % 2 == 1 ? 8 : 1;
        auto result = processor_->ExecuteAll(stacked.value(), options);
        if (!result.ok()) {
          out.status = result.status();
          return;
        }
        if (result.value().items != oracle.value().items) {
          out.status = Status::Internal("stacked result diverged");
          return;
        }
      }
    });
  }
  std::thread writer([&]() {
    for (int round = 0; round < kWriterRounds && writer_status.ok();
         ++round) {
      const std::string uri = "scratch-" + std::to_string(round % 2) + ".xml";
      writer_status = processor_->LoadDocument(
          uri, "<scratch><round>" + std::to_string(round) +
                   "</round></scratch>");
      if (writer_status.ok()) {
        writer_status = processor_->CreateRelationalIndexes();
      }
    }
  });
  for (auto& thread : pool) thread.join();
  writer.join();
  ASSERT_TRUE(writer_status.ok()) << writer_status.ToString();
  for (int t = 0; t < kThreads; ++t) {
    ThreadOutcome& outcome = outcomes[static_cast<size_t>(t)];
    ASSERT_TRUE(outcome.status.ok())
        << "thread " << t << ": " << outcome.status.ToString();
    // Items fetched after the pre-writer first batch (placeholder at 0).
    std::vector<std::string> tail(oracle.value().items.begin() + 1,
                                  oracle.value().items.end());
    std::vector<std::string> got(outcome.items.begin() + 1,
                                 outcome.items.end());
    EXPECT_EQ(got, tail) << "thread " << t;
  }

  // The writer's index DDL re-created the SAME definitions each round, so
  // the join-graph artifact stays servable: staleness intersects on the
  // indexes the plan actually probes (definition-identical), not on the
  // epoch alone — the over-eviction fix.
  auto still = processor_->ExecuteAll(jg.value(), exec);
  ASSERT_TRUE(still.ok()) << still.status().ToString();
  EXPECT_EQ(still.value().items, oracle.value().items);

  // Dropping the index set is a REAL change to the plan's probed indexes:
  // now the artifact is stale, and a fresh Prepare against the mutated
  // catalog reproduces the oracle.
  processor_->DropRelationalIndexes();
  auto stale = processor_->Execute(jg.value(), exec);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(processor_->CreateRelationalIndexes().ok());
  auto fresh = processor_->Prepare(q1.text, jg_prep);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto fresh_result = processor_->ExecuteAll(fresh.value(), exec);
  ASSERT_TRUE(fresh_result.ok()) << fresh_result.status().ToString();
  EXPECT_EQ(fresh_result.value().items, oracle.value().items);
}

TEST_F(PreparedConcurrencyTest, MultiWorkerExecutionsUnderLiveCatalogMutation) {
  // Morsel parallelism composes with catalog concurrency (run under TSan
  // in CI): N sessions each execute the SAME prepared artifacts with the
  // columnar executors at threads = 8 — so every session fans out its own
  // worker-pool morsels — while a writer loads documents and re-creates
  // the index set. Workers are pinned to the cursor's snapshot, so every
  // execution must reproduce the serial oracle bit-identically.
  const PaperQuery& q1 = PaperQueries()[0];
  PrepareOptions jg_prep;
  jg_prep.context_document = q1.document;
  auto jg = processor_->Prepare(q1.text, jg_prep);
  ASSERT_TRUE(jg.ok()) << jg.status().ToString();
  PrepareOptions stacked_prep = jg_prep;
  stacked_prep.mode = Mode::kStacked;
  auto stacked = processor_->Prepare(q1.text, stacked_prep);
  ASSERT_TRUE(stacked.ok()) << stacked.status().ToString();
  ExecuteOptions serial;
  serial.limits.timeout_seconds = 120;
  auto oracle = processor_->ExecuteAll(jg.value(), serial);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  constexpr int kRounds = 4;
  std::vector<ThreadOutcome> outcomes(kThreads);
  Status writer_status = Status::OK();
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      ThreadOutcome& out = outcomes[static_cast<size_t>(t)];
      const auto& prepared = (t % 2 == 0) ? jg.value() : stacked.value();
      for (int round = 0; round < kRounds; ++round) {
        ExecuteOptions options = serial;
        options.threads = 8;
        auto result = processor_->ExecuteAll(prepared, options);
        if (!result.ok()) {
          out.status = result.status();
          return;
        }
        if (result.value().items != oracle.value().items) {
          out.status = Status::Internal("multi-worker result diverged");
          return;
        }
      }
      out.items = oracle.value().items;
    });
  }
  std::thread writer([&]() {
    for (int round = 0; round < kRounds && writer_status.ok(); ++round) {
      writer_status = processor_->LoadDocument(
          "mw-scratch.xml",
          "<scratch><round>" + std::to_string(round) + "</round></scratch>");
      if (writer_status.ok()) {
        writer_status = processor_->CreateRelationalIndexes();
      }
    }
  });
  for (auto& thread : pool) thread.join();
  writer.join();
  ASSERT_TRUE(writer_status.ok()) << writer_status.ToString();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(outcomes[static_cast<size_t>(t)].status.ok())
        << "thread " << t << ": "
        << outcomes[static_cast<size_t>(t)].status.ToString();
  }
}

TEST_F(PreparedConcurrencyTest, ConcurrentStreamingCursorsStayIndependent) {
  const PaperQuery& q4 = PaperQueries()[3];
  PrepareOptions prep;
  prep.context_document = q4.document;
  auto prepared = processor_->Prepare(q4.text, prep);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto oracle = processor_->ExecuteAll(prepared.value());
  ASSERT_TRUE(oracle.ok());

  std::vector<ThreadOutcome> outcomes(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      auto cursor = processor_->Execute(prepared.value());
      if (!cursor.ok()) {
        outcomes[static_cast<size_t>(t)].status = cursor.status();
        return;
      }
      // Deliberately small, thread-dependent batch sizes: interleaved
      // FetchNext schedules across threads.
      const size_t batch_size = static_cast<size_t>(t) + 1;
      while (true) {
        auto batch = cursor.value()->FetchNext(batch_size);
        if (!batch.ok()) {
          outcomes[static_cast<size_t>(t)].status = batch.status();
          return;
        }
        if (batch.value().empty()) break;
        for (auto& item : batch.value()) {
          outcomes[static_cast<size_t>(t)].items.push_back(std::move(item));
        }
      }
    });
  }
  for (auto& thread : pool) thread.join();
  for (const ThreadOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.items, oracle.value().items);
  }
}

}  // namespace
}  // namespace xqjg::api

// Memory-governed execution: spill differential and budget coverage.
//
// The columnar executors charge their live state against
// ExecLimits::max_memory_bytes and move breaker state to disk when the
// governor says so (engine/spill.h): sorts flush sorted runs, hash-join
// build sides go Grace-partitioned. The contract under test is that a
// budget NEVER changes an answer — results must be BIT-IDENTICAL at a
// spill-forcing budget, a moderate budget, and no budget, at every
// worker count, to each other and to the native interpreter — and that
// the spill machinery actually engages (spill_events) when forced.
// Also pins two unit contracts: the shared external sorter reproduces a
// stable in-memory sort across runs, and a worker clock's TickThrow
// observes the region abort latch immediately (regression: it used to
// consult only the local deadline, so sort comparators kept running
// after a sibling worker hit a budget).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/api/paper_queries.h"
#include "src/api/processor.h"
#include "src/common/value.h"
#include "src/data/dblp.h"
#include "src/data/xmark.h"
#include "src/engine/database.h"
#include "src/engine/columnar/plan_exec.h"
#include "src/engine/exec_options.h"
#include "src/engine/planner.h"
#include "src/engine/spill.h"
#include "src/opt/join_graph.h"
#include "src/xml/parser.h"
#include "tests/testutil/fixtures.h"

namespace xqjg {
namespace {

/// Forces every governed breaker past its threshold on the test corpus.
constexpr int64_t kTinyBudget = 16 * 1024;
/// {spill-forcing, moderate, unlimited} — the answer must not care.
const int64_t kBudgets[] = {kTinyBudget, 4 * 1024 * 1024, 0};
const int kThreadCounts[] = {1, 8};

// ---------------------------------------------------------------------------
// Unit coverage.

TEST(BudgetClockAbort, TickThrowObservesTheRegionLatchImmediately) {
  // A sort comparator ticks via TickThrow. Once any worker aborts the
  // region, the very next TickThrow on a sibling clock must throw — not
  // only after the 4096-call deadline stride — or a spilling sort keeps
  // grinding through a run flush nobody will read.
  engine::BudgetClock parent((engine::ExecLimits()));
  engine::RegionBudget region(parent);
  engine::BudgetClock worker = region.Worker();
  EXPECT_NO_THROW(worker.TickThrow());  // nothing aborted yet

  region.Abort(Status::Timeout("sibling hit a budget"));
  EXPECT_THROW(worker.TickThrow(), engine::BudgetExhausted);
  // And it stays latched for clocks vended after the abort too.
  engine::BudgetClock late = region.Worker();
  EXPECT_THROW(late.TickThrow(), engine::BudgetExhausted);
}

TEST(ExternalValueSorter, SpilledMergeEqualsStableInMemorySort) {
  // Rows keyed on column 0 with heavy duplication; column 1 is the input
  // position, NOT a sort key — if the run merge (with its run-index
  // tie-break) reproduces a stable sort, positions within each key stay
  // ascending.
  constexpr int kRows = 5000;  // several runs at this budget
  engine::ExecLimits limits;
  limits.max_memory_bytes = 8 * 1024;
  engine::BudgetClock clock(limits);
  engine::MemoryBudget budget(limits.max_memory_bytes);
  engine::ExecStats stats;
  engine::ExternalValueSorter sorter(&clock, &budget, &stats, /*arity=*/2,
                                     /*keys=*/{0});
  for (int r = 0; r < kRows; ++r) {
    std::vector<Value> row;
    row.push_back(Value::Int((r * 7919) % 13));  // 13 key groups
    row.push_back(Value::Int(r));
    ASSERT_TRUE(sorter.Add(std::move(row)).ok());
  }
  ASSERT_TRUE(sorter.Finish().ok());
  ASSERT_TRUE(sorter.spilled());
  EXPECT_GT(stats.spill_events, 0);
  EXPECT_GT(stats.spill_bytes, 0);

  int64_t prev_key = -1, prev_pos = -1, seen = 0;
  std::vector<Value> row;
  for (;;) {
    auto more = sorter.Next(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!more.value()) break;
    const int64_t key = row[0].AsInt();
    const int64_t pos = row[1].AsInt();
    ASSERT_GE(key, prev_key) << "merge emitted keys out of order";
    if (key == prev_key) {
      ASSERT_GT(pos, prev_pos) << "stability lost within key " << key;
    }
    prev_key = key;
    prev_pos = pos;
    ++seen;
  }
  EXPECT_EQ(seen, kRows);
}

// ---------------------------------------------------------------------------
// End-to-end differential: paper queries, relational lanes, every budget.

class SpillPaperQueries : public ::testing::Test {
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

api::XQueryProcessor* SpillPaperQueries::processor_ = nullptr;

TEST_F(SpillPaperQueries, EveryBudgetMatchesTheNativeOracle) {
  for (const auto& q : api::PaperQueries()) {
    // The native interpreter (no compile, isolate, or plan) is the oracle.
    api::RunOptions oracle_options;
    oracle_options.timeout_seconds = 120;
    oracle_options.mode = api::Mode::kNativeWhole;
    oracle_options.context_document = q.document;
    auto oracle = processor_->Run(q.text, oracle_options);
    ASSERT_TRUE(oracle.ok()) << q.id << ": " << oracle.status().ToString();

    for (api::Mode mode : {api::Mode::kStacked, api::Mode::kJoinGraph}) {
      api::PrepareOptions prep;
      prep.mode = mode;
      prep.context_document = q.document;
      auto pq = processor_->Prepare(q.text, prep);
      ASSERT_TRUE(pq.ok()) << q.id << ": " << pq.status().ToString();
      for (int threads : kThreadCounts) {
        for (int64_t budget : kBudgets) {
          api::ExecuteOptions exec;
          exec.limits.timeout_seconds = 120;
          exec.limits.max_memory_bytes = budget;
          exec.threads = threads;
          auto result = processor_->ExecuteAll(pq.value(), exec);
          ASSERT_TRUE(result.ok())
              << q.id << " " << api::ModeToString(mode) << " threads="
              << threads << " budget=" << budget << ": "
              << result.status().ToString();
          EXPECT_EQ(result.value().items, oracle.value().items)
              << q.id << " " << api::ModeToString(mode)
              << " diverges at threads=" << threads << " budget=" << budget;
        }
      }
    }
  }
}

TEST_F(SpillPaperQueries, TinyBudgetActuallySpillsSomewhere) {
  // The differential above would pass vacuously if ShouldSpill() never
  // fired. Across the paper queries at the tiny budget, at least one
  // execution must have moved state to disk.
  int64_t total_spill_events = 0;
  for (const auto& q : api::PaperQueries()) {
    for (api::Mode mode : {api::Mode::kStacked, api::Mode::kJoinGraph}) {
      api::PrepareOptions prep;
      prep.mode = mode;
      prep.context_document = q.document;
      auto pq = processor_->Prepare(q.text, prep);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString();
      api::ExecuteOptions exec;
      exec.limits.timeout_seconds = 120;
      exec.limits.max_memory_bytes = kTinyBudget;
      auto cursor = processor_->Execute(pq.value(), exec);
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      auto all = cursor.value()->FetchAll();
      ASSERT_TRUE(all.ok()) << q.id << ": " << all.status().ToString();
      total_spill_events += cursor.value()->stats().engine.spill_events;
    }
  }
  EXPECT_GT(total_spill_events, 0)
      << "no paper-query execution spilled at a " << kTinyBudget
      << "-byte budget — the governor is not engaging";
}

// ---------------------------------------------------------------------------
// Acceptance: a join-graph plan whose hash build AND tail sort both
// exceed the budget completes via Grace + external sort, bit-identical
// to the unlimited serial run.
//
// The plan is hand-built (columnar_exec_test precedent): front-end
// extraction never emits HSJOIN for value-join FLWORs here — they take
// the isolated-DAG fallback — and the cost-based planner prefers index
// nested loops once indexes exist. A self-join of the document relation
// on its unique `pre` column puts every doc row through the hash build
// and every match through the ORDER BY tail, both far past 16 KiB.

class GraceJoinSpill : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    doc_ = new xml::DocTable();
    data::XmarkOptions xmark;
    xmark.scale = 0.1;  // 2168 doc-relation rows, > kMinSpillRows
    ASSERT_TRUE(xml::LoadDocument(doc_, "auction.xml",
                                  data::GenerateXmark(xmark))
                    .ok());
    db_ = engine::Database::Build(*doc_).release();
    // The index-probe cases need an outer side wider than one 4096-row
    // stream window, and a B-tree on `pre` to probe.
    big_doc_ = new xml::DocTable();
    xmark.scale = 0.3;
    ASSERT_TRUE(xml::LoadDocument(big_doc_, "auction.xml",
                                  data::GenerateXmark(xmark))
                    .ok());
    big_db_ = engine::Database::Build(*big_doc_).release();
    ASSERT_TRUE(big_db_->CreateIndex({"p", {"pre"}, {}, false}).ok());
  }
  static void TearDownTestSuite() {
    delete big_db_;
    delete big_doc_;
    delete db_;
    delete doc_;
  }

  static opt::QualTerm PreOf(int alias) {
    opt::QualTerm t;
    t.alias = alias;
    t.col = "pre";
    return t;
  }

  static std::unique_ptr<engine::PhysNode> Scan(engine::PhysKind kind,
                                                int alias) {
    auto scan = std::make_unique<engine::PhysNode>();
    scan->kind = kind;
    scan->alias = alias;
    if (kind == engine::PhysKind::kIxScan) {
      scan->index = big_db_->indexes().front().get();
    }
    return scan;
  }

  /// Runs `plan` over the big corpus at every budget × worker count and
  /// holds each run to 0..N-1.
  static void ExpectIdentityAtEveryBudget(const engine::PhysicalPlan& plan) {
    std::vector<int64_t> expected(static_cast<size_t>(big_db_->row_count()));
    std::iota(expected.begin(), expected.end(), 0);
    for (int threads : kThreadCounts) {
      for (int64_t budget : {int64_t{0}, kTinyBudget}) {
        engine::PlannerOptions options;
        options.threads = threads;
        options.limits.max_memory_bytes = budget;
        auto result = testutil::Drain(engine::columnar::OpenPlanStreamColumnar(
            plan, *big_db_, options, nullptr));
        ASSERT_TRUE(result.ok()) << "threads=" << threads << " budget="
                                 << budget << ": "
                                 << result.status().ToString();
        EXPECT_EQ(result.value(), expected)
            << "diverges at threads=" << threads << " budget=" << budget;
      }
    }
  }

  static xml::DocTable* doc_;
  static engine::Database* db_;
  static xml::DocTable* big_doc_;
  static engine::Database* big_db_;
};

xml::DocTable* GraceJoinSpill::doc_ = nullptr;
engine::Database* GraceJoinSpill::db_ = nullptr;
xml::DocTable* GraceJoinSpill::big_doc_ = nullptr;
engine::Database* GraceJoinSpill::big_db_ = nullptr;

TEST_F(GraceJoinSpill, HashBuildAndTailSortSpillBitIdentically) {
  // The floor: below kMinSpillRows the governor refuses to spill (by
  // design), so this corpus must be big enough to be above it.
  ASSERT_GE(db_->row_count(), engine::kMinSpillRows);

  opt::JoinGraph graph;
  graph.num_aliases = 2;
  auto col_term = [](int alias, const char* col) {
    opt::QualTerm t;
    t.alias = alias;
    t.col = col;
    return t;
  };
  graph.predicates.push_back(
      {col_term(0, "pre"), algebra::CmpOp::kEq, col_term(1, "pre")});
  graph.item = col_term(0, "pre");
  graph.select_list = {graph.item};

  engine::PhysicalPlan plan;
  plan.graph = &graph;
  auto scan0 = std::make_unique<engine::PhysNode>();
  scan0->kind = engine::PhysKind::kTbScan;
  scan0->alias = 0;
  auto scan1 = std::make_unique<engine::PhysNode>();
  scan1->kind = engine::PhysKind::kTbScan;
  scan1->alias = 1;
  auto join = std::make_unique<engine::PhysNode>();
  join->kind = engine::PhysKind::kHsJoin;
  join->preds = graph.predicates;
  join->left = std::move(scan0);
  join->right = std::move(scan1);
  plan.root = std::move(join);

  // `pre` is unique, so every row pairs with exactly itself and the
  // ordered result is simply 0..N-1 — an oracle independent of any
  // executor. The serial unlimited run must reproduce it…
  std::vector<int64_t> expected(static_cast<size_t>(db_->row_count()));
  std::iota(expected.begin(), expected.end(), 0);
  auto unlimited = testutil::Drain(
      engine::columnar::OpenPlanStreamColumnar(plan, *db_, {}, nullptr));
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  ASSERT_EQ(unlimited.value(), expected);

  // …and so must a spill-forcing budget, at every worker count, while
  // actually going external twice.
  for (int threads : kThreadCounts) {
    engine::PlannerOptions spilled;
    spilled.threads = threads;
    spilled.limits.max_memory_bytes = kTinyBudget;
    engine::ExecStats stats;
    auto result = testutil::Drain(engine::columnar::OpenPlanStreamColumnar(
        plan, *db_, spilled, &stats));
    ASSERT_TRUE(result.ok())
        << "threads=" << threads << ": " << result.status().ToString();
    EXPECT_EQ(result.value(), expected)
        << "spilled execution diverges at threads=" << threads;
    // Grace build + external tail sort: at least two distinct spills.
    EXPECT_GE(stats.spill_events, 2)
        << "threads=" << threads
        << ": expected both the hash build and the tail sort to spill";
    EXPECT_GT(stats.spill_bytes, 0);
  }
}

TEST_F(GraceJoinSpill, IndexScanLeafIsBitIdentical) {
  // An unbounded range over the B-tree on `pre` yields every row, in key
  // order — again 0..N-1.
  opt::JoinGraph graph;
  graph.num_aliases = 1;
  graph.item = PreOf(0);
  graph.select_list = {graph.item};
  engine::PhysicalPlan plan;
  plan.graph = &graph;
  plan.root = Scan(engine::PhysKind::kIxScan, 0);
  ExpectIdentityAtEveryBudget(plan);
}

TEST_F(GraceJoinSpill, IndexNestedLoopIsBitIdentical) {
  // Every doc row probes the B-tree on `pre` for itself. The outer side
  // spans more than one 4096-row stream window and is far past the
  // 256-row cutoff of the morsel-parallel probe.
  ASSERT_GT(big_db_->row_count(), 4096);
  opt::JoinGraph graph;
  graph.num_aliases = 2;
  graph.predicates.push_back({PreOf(0), algebra::CmpOp::kEq, PreOf(1)});
  graph.item = PreOf(1);
  graph.select_list = {graph.item};
  engine::PhysicalPlan plan;
  plan.graph = &graph;
  auto join = std::make_unique<engine::PhysNode>();
  join->kind = engine::PhysKind::kNlJoin;
  join->preds = graph.predicates;
  join->left = Scan(engine::PhysKind::kTbScan, 0);
  join->right = Scan(engine::PhysKind::kIxScan, 1);
  join->right->preds = graph.predicates;
  join->right->eq_prefix = 1;
  plan.root = std::move(join);
  ExpectIdentityAtEveryBudget(plan);
}

}  // namespace
}  // namespace xqjg

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
// Also pins unit contracts: the shared external sorter reproduces a
// stable in-memory sort across runs (and keeps one descriptor however
// many runs it writes), every column representation round-trips through
// the spill format, and a worker clock's TickThrow
// observes the region abort latch immediately (regression: it used to
// consult only the local deadline, so sort comparators kept running
// after a sibling worker hit a budget).
#include <gtest/gtest.h>

#include <sys/resource.h>

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
#include "src/algebra/operators.h"
#include "src/common/value_column.h"
#include "src/engine/columnar/column_batch.h"
#include "src/engine/columnar/columnar_exec.h"
#include "src/engine/columnar/plan_exec.h"
#include "src/engine/database.h"
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

/// A dense two-int-column batch of rows [begin, end): column 0 is a key
/// with 13 heavily duplicated groups, column 1 the input position.
engine::columnar::ColumnBatch KeyedRows(int64_t begin, int64_t end) {
  std::vector<int64_t> keys, pos;
  for (int64_t r = begin; r < end; ++r) {
    keys.push_back((r * 7919) % 13);
    pos.push_back(r);
  }
  engine::columnar::ColumnBatch batch;
  batch.num_rows = static_cast<size_t>(end - begin);
  batch.cols.push_back(std::make_shared<const ValueColumn>(
      ValueColumn::Ints(std::move(keys))));
  batch.cols.push_back(std::make_shared<const ValueColumn>(
      ValueColumn::Ints(std::move(pos))));
  return batch;
}

/// Drains a finished sorter over KeyedRows input and checks the stable
/// sort: keys ascend, positions ascend within each key, and every row of
/// [0, rows) comes out once.
void ExpectStableKeyedSort(engine::ExternalSorter* sorter, int64_t rows) {
  int64_t prev_key = -1, prev_pos = -1, seen = 0;
  for (;;) {
    engine::columnar::ColumnBatch out;
    auto more = sorter->Next(&out);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!more.value()) break;
    ASSERT_EQ(out.cols.size(), 2u);
    ASSERT_LE(out.num_rows, engine::columnar::kStreamRows);
    for (size_t r = 0; r < out.num_rows; ++r) {
      const int64_t key = out.cols[0]->ints()[r];
      const int64_t pos = out.cols[1]->ints()[r];
      ASSERT_GE(key, prev_key) << "merge emitted keys out of order";
      if (key == prev_key) {
        ASSERT_GT(pos, prev_pos) << "stability lost within key " << key;
      }
      prev_key = key;
      prev_pos = pos;
      ++seen;
    }
  }
  EXPECT_EQ(seen, rows);
}

TEST(ExternalSorter, SpilledMergeEqualsStableInMemorySort) {
  // Column 1 is the input position, NOT a sort key — if the run merge
  // (with its run-index tie-break) reproduces a stable sort, positions
  // within each key stay ascending.
  constexpr int64_t kRows = 5000;  // several runs at this budget
  engine::ExecLimits limits;
  limits.max_memory_bytes = 8 * 1024;
  engine::BudgetClock clock(limits);
  engine::MemoryBudget budget(limits.max_memory_bytes);
  engine::ExecStats stats;
  engine::ExternalSorter sorter(&clock, &budget, &stats, /*keys=*/{0});
  for (int64_t r = 0; r < kRows; r += 500) {
    ASSERT_TRUE(sorter.Add(KeyedRows(r, r + 500)).ok());
  }
  ASSERT_TRUE(sorter.Finish().ok());
  ASSERT_TRUE(sorter.spilled());
  EXPECT_GT(stats.spill_events, 0);
  EXPECT_GT(stats.spill_bytes, 0);
  ExpectStableKeyedSort(&sorter, kRows);
}

TEST(ExternalSorter, ThousandRunsSortUnderASixtyFourDescriptorLimit) {
  // One file per sorter, whatever the run count: with the soft descriptor
  // limit at 64, a sort of more than 1000 runs must still succeed (a file
  // per run runs out of descriptors after about 60).
  constexpr int64_t kRows = 1001 * engine::kMinSpillRows;
  rlimit old_limit{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  rlimit low = old_limit;
  low.rlim_cur = 64;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &low), 0);
  struct Restore {
    rlimit limit;
    ~Restore() { setrlimit(RLIMIT_NOFILE, &limit); }
  } restore{old_limit};

  engine::ExecLimits limits;
  limits.max_memory_bytes = 8 * 1024;
  engine::BudgetClock clock(limits);
  engine::MemoryBudget budget(limits.max_memory_bytes);
  engine::ExecStats stats;
  engine::ExternalSorter sorter(&clock, &budget, &stats, /*keys=*/{0});
  const auto step = static_cast<int64_t>(engine::kMinSpillRows);
  for (int64_t r = 0; r < kRows; r += step) {
    ASSERT_TRUE(sorter.Add(KeyedRows(r, r + step)).ok());
  }
  Status finished = sorter.Finish();
  ASSERT_TRUE(finished.ok()) << finished.ToString();
  EXPECT_GT(stats.spill_events, 1000) << "expected more than 1000 runs";
  ExpectStableKeyedSort(&sorter, kRows);
}

// ---------------------------------------------------------------------------
// Spill format: a block read back holds the values written, per column
// representation. Each column is written through a lazy window that skips
// its first row, so the selection-vector path of the writer runs too.

void ExpectRoundTrip(const ValueColumn& col) {
  auto shared = std::make_shared<const ValueColumn>(col);
  std::vector<uint32_t> rows(col.size() - 1);
  std::iota(rows.begin(), rows.end(), 1);
  engine::columnar::ColumnBatch window;
  window.num_rows = rows.size();
  window.cols = {shared};
  window.sel = std::make_shared<const std::vector<uint32_t>>(rows);
  engine::BudgetClock clock;
  engine::SpillFile file;
  ASSERT_TRUE(file.Append(window, &clock).ok());
  ASSERT_TRUE(file.Append(window, &clock).ok());  // a second block
  int64_t offset = 0;
  for (int block = 0; block < 2; ++block) {
    engine::columnar::ColumnBatch back;
    Status st = file.Read(&offset, &back, &clock);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(back.num_rows, rows.size());
    ASSERT_EQ(back.cols.size(), 1u);
    ASSERT_EQ(back.cols[0]->size(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      const Value want = col.GetValue(rows[r]);
      const Value got = back.cols[0]->GetValue(r);
      EXPECT_EQ(got.type(), want.type()) << "row " << r;
      EXPECT_EQ(got, want) << "row " << r << ": " << got.ToString()
                           << " != " << want.ToString();
    }
  }
  EXPECT_EQ(offset, file.size());
}

TEST(SpillFormat, Int64WithoutNulls) {
  ExpectRoundTrip(ValueColumn::Ints({7, -1, 0, INT64_MAX, INT64_MIN}));
}

TEST(SpillFormat, Int64WithNulls) {
  ExpectRoundTrip(ValueColumn::Ints({1, 2, 3, 4, 5}, {0, 1, 0, 0, 1}));
}

TEST(SpillFormat, DoubleWithNulls) {
  ExpectRoundTrip(ValueColumn::Doubles({0.5, -2.25, 1e300, 3.0, 0.0},
                                       {0, 0, 1, 0, 1}));
}

TEST(SpillFormat, PlainString) {
  ExpectRoundTrip(ValueColumn::Strings(
      {"skipped", "", "a", std::string(3, '\0') + "nul", "long string"},
      {0, 0, 0, 0, 1}));
}

TEST(SpillFormat, DictionaryString) {
  const ValueColumn col = ValueColumn::DictStrings(
      {"item", "name", "item", "", "name", "item"}, {0, 0, 0, 0, 1, 0});
  ASSERT_EQ(col.tag(), ColumnTag::kDictString);
  ExpectRoundTrip(col);
}

TEST(SpillFormat, Mixed) {
  const ValueColumn col = ColumnFromValues(
      {Value::Int(1), Value::String("two"), Value::Double(3.5),
       Value::Null(), Value::Int(-5), Value::String("")});
  ASSERT_EQ(col.tag(), ColumnTag::kMixed);
  ExpectRoundTrip(col);
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
    // stream window, and an index on `pre` to probe.
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
  // An unbounded range over the index on `pre` yields every row, in key
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
  // Every doc row probes the index on `pre` for itself. The outer side
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

// ---------------------------------------------------------------------------
// δ's Grace path, isolated: a heavily duplicated projection of the doc
// relation buffers far past 16 KiB, so δ hash-partitions its input to
// disk, dedups each partition, and merges the survivors back into
// first-occurrence order by their arrival sequence numbers.

class GraceDistinctSpill : public GraceJoinSpill {};

TEST_F(GraceDistinctSpill, DuplicateHeavyProjectionIsBitIdentical) {
  const algebra::OpPtr plan = algebra::MakeDistinct(algebra::MakeProject(
      algebra::MakeDocTable(),
      {{"n", "name"}, {"k", "kind"}, {"l", "level"}}));
  auto unlimited = engine::columnar::EvaluateColumnar(plan, *big_doc_);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  const std::vector<std::vector<Value>> expected =
      testutil::Rows(unlimited.value());
  ASSERT_GT(expected.size(), 1u);
  ASSERT_LT(expected.size() * 10,
            static_cast<size_t>(big_doc_->row_count()))
      << "the projection is not duplicate-heavy";

  for (int threads : kThreadCounts) {
    for (int64_t budget : {int64_t{0}, kTinyBudget}) {
      engine::ExecStats stats;
      engine::ExecOptions options;
      options.threads = threads;
      options.limits.max_memory_bytes = budget;
      options.stats = &stats;
      auto result =
          engine::columnar::EvaluateColumnar(plan, *big_doc_, options);
      ASSERT_TRUE(result.ok()) << "threads=" << threads << " budget="
                               << budget << ": "
                               << result.status().ToString();
      EXPECT_EQ(result.value().schema, unlimited.value().schema);
      const std::vector<std::vector<Value>> got =
          testutil::Rows(result.value());
      ASSERT_EQ(got.size(), expected.size())
          << "threads=" << threads << " budget=" << budget;
      for (size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].size(), expected[r].size());
        for (size_t c = 0; c < got[r].size(); ++c) {
          const Value& g = got[r][c];
          const Value& e = expected[r][c];
          ASSERT_TRUE(g.type() == e.type() && g == e)
              << "threads=" << threads << " budget=" << budget << " row "
              << r << " col " << c << ": " << g.ToString()
              << " != " << e.ToString();
        }
      }
      if (budget == kTinyBudget) {
        EXPECT_GT(stats.spill_events, 0)
            << "threads=" << threads << ": δ did not spill at 16 KiB";
      }
    }
  }
}

}  // namespace
}  // namespace xqjg

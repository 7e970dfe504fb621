// Prepare/Execute lifecycle: the compiled artifact is immutable and
// reusable, cursors stream in batches, ExecuteAll preserves Run
// semantics, and stale artifacts are rejected after catalog changes.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>

#include "src/api/paper_queries.h"
#include "src/api/processor.h"
#include "src/data/dblp.h"
#include "src/data/xmark.h"
#include "tests/testutil/fixtures.h"

namespace xqjg::api {
namespace {

class PreparedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(processor_
                    .LoadDocument("site.xml", testutil::TinySiteXml(),
                                  {"item"})
                    .ok());
    ASSERT_TRUE(processor_.CreateRelationalIndexes().ok());
  }

  XQueryProcessor processor_;
  const std::string query_ = "//item[price > 10.0]/name";
};

TEST_F(PreparedQueryTest, PrepareCapturesCompiledArtifacts) {
  PrepareOptions options;
  options.mode = Mode::kJoinGraph;
  options.context_document = "site.xml";
  auto prepared = processor_.Prepare(query_, options);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const PreparedQuery& pq = *prepared.value();
  EXPECT_EQ(pq.query_text, query_);
  EXPECT_NE(pq.core, nullptr);
  EXPECT_NE(pq.stacked, nullptr);
  EXPECT_NE(pq.isolated, nullptr);
  EXPECT_TRUE(pq.has_plan);
  EXPECT_FALSE(pq.used_fallback);
  EXPECT_NE(pq.graph, nullptr);
  EXPECT_EQ(pq.plan.graph, pq.graph.get());  // plan points into the artifact
  EXPECT_FALSE(pq.sql.empty());
  EXPECT_FALSE(pq.explain.empty());
  EXPECT_GT(pq.diagnostics.ops_stacked, pq.diagnostics.ops_isolated);
  EXPECT_GE(pq.compile_seconds, 0.0);
  EXPECT_EQ(pq.catalog_generation, processor_.catalog_generation());
}

TEST(PreparedQueryStages, StageSecondsCoverThePrepareStages) {
  XQueryProcessor processor;
  data::DblpOptions dblp;
  dblp.publications = 200;
  ASSERT_TRUE(
      processor.LoadDocument("dblp.xml", data::GenerateDblp(dblp)).ok());
  ASSERT_TRUE(processor.CreateRelationalIndexes().ok());
  const PaperQuery* q5 = nullptr;
  for (const auto& q : PaperQueries()) {
    if (q.id == "Q5") q5 = &q;
  }
  ASSERT_NE(q5, nullptr);
  PrepareOptions options;
  options.mode = Mode::kJoinGraph;
  options.context_document = q5->document;
  const auto started = std::chrono::steady_clock::now();
  auto prepared = processor.Prepare(q5->text, options);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started)
                          .count();
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const PreparedQuery& pq = *prepared.value();
  ASSERT_TRUE(pq.has_plan);
  const CompileDiagnostics::StageSeconds& s = pq.diagnostics.stage_seconds;
  for (double seconds :
       {s.parse, s.normalize, s.compile, s.isolate, s.extract, s.plan}) {
    EXPECT_GE(seconds, 0.0);
  }
  EXPECT_GT(s.isolate, 0.0);
  const double sum =
      s.parse + s.normalize + s.compile + s.isolate + s.extract + s.plan;
  EXPECT_LE(sum, pq.compile_seconds);
  EXPECT_LE(sum, wall);
}

TEST_F(PreparedQueryTest, RunMatchesPrepareExecuteInEveryMode) {
  for (Mode mode : {Mode::kStacked, Mode::kJoinGraph, Mode::kNativeWhole,
                    Mode::kNativeSegmented}) {
    RunOptions run_options;
    run_options.mode = mode;
    run_options.context_document = "site.xml";
    auto via_run = processor_.Run(query_, run_options);
    ASSERT_TRUE(via_run.ok())
        << ModeToString(mode) << ": " << via_run.status().ToString();

    PrepareOptions prep;
    prep.mode = mode;
    prep.context_document = "site.xml";
    auto prepared = processor_.Prepare(query_, prep);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto via_execute = processor_.ExecuteAll(prepared.value());
    ASSERT_TRUE(via_execute.ok()) << via_execute.status().ToString();

    EXPECT_EQ(via_run.value().items, via_execute.value().items)
        << ModeToString(mode);
    EXPECT_EQ(via_run.value().sql, via_execute.value().sql);
    EXPECT_EQ(via_run.value().explain, via_execute.value().explain);
    EXPECT_EQ(via_run.value().used_fallback, via_execute.value().used_fallback);
  }
}

TEST_F(PreparedQueryTest, CursorStreamsInBatches) {
  PrepareOptions options;
  options.context_document = "site.xml";
  auto prepared = processor_.Prepare("//item", options);
  ASSERT_TRUE(prepared.ok());
  auto oracle = processor_.ExecuteAll(prepared.value());
  ASSERT_TRUE(oracle.ok());
  ASSERT_GE(oracle.value().result_count(), 2u);

  auto cursor = processor_.Execute(prepared.value());
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  ResultCursor& c = *cursor.value();
  EXPECT_FALSE(c.exhausted());  // plan has not run yet
  EXPECT_EQ(c.stats().rows_total, -1);

  std::vector<std::string> streamed;
  size_t batches = 0;
  while (true) {
    auto batch = c.FetchNext(1);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch.value().empty()) break;
    EXPECT_EQ(batch.value().size(), 1u);
    for (auto& item : batch.value()) streamed.push_back(std::move(item));
    ++batches;
  }
  EXPECT_TRUE(c.exhausted());
  EXPECT_EQ(streamed, oracle.value().items);
  EXPECT_EQ(batches, oracle.value().result_count());
  // One source of truth: cursor counts equal materialized counts.
  EXPECT_EQ(static_cast<size_t>(c.stats().rows_total),
            oracle.value().result_count());
  EXPECT_EQ(static_cast<size_t>(c.stats().rows_fetched),
            oracle.value().result_count());
}

TEST_F(PreparedQueryTest, FetchZeroIsAnErrorAndExhaustionIsSticky) {
  PrepareOptions options;
  options.context_document = "site.xml";
  auto prepared = processor_.Prepare("//item", options);
  ASSERT_TRUE(prepared.ok());
  auto cursor = processor_.Execute(prepared.value());
  ASSERT_TRUE(cursor.ok());
  EXPECT_FALSE(cursor.value()->FetchNext(0).ok());
  auto all = cursor.value()->FetchAll();
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(cursor.value()->exhausted());
  auto after = cursor.value()->FetchNext(8);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().empty());
}

TEST_F(PreparedQueryTest, ConcurrentCursorsOverOnePreparedQueryAreIndependent) {
  PrepareOptions options;
  options.context_document = "site.xml";
  auto prepared = processor_.Prepare("//item", options);
  ASSERT_TRUE(prepared.ok());
  auto c1 = processor_.Execute(prepared.value());
  auto c2 = processor_.Execute(prepared.value());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  // Interleaved fetches: each cursor keeps its own position.
  auto b1 = c1.value()->FetchNext(1);
  auto b2 = c2.value()->FetchAll();
  auto b1rest = c1.value()->FetchAll();
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(b2.ok());
  ASSERT_TRUE(b1rest.ok());
  std::vector<std::string> via_c1 = b1.value();
  for (auto& item : b1rest.value()) via_c1.push_back(std::move(item));
  EXPECT_EQ(via_c1, b2.value());
}

TEST_F(PreparedQueryTest, StaleRejectionIsPerTouchedDocument) {
  PrepareOptions options;
  options.context_document = "site.xml";
  auto prepared = processor_.Prepare(query_, options);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(processor_.Execute(prepared.value()).ok());

  // Loading an UNRELATED document does not stale a site.xml plan: it
  // executes from its pinned snapshot with identical results.
  auto oracle = processor_.ExecuteAll(prepared.value());
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(
      processor_.LoadDocument("other.xml", testutil::TinyBibXml()).ok());
  auto still_valid = processor_.ExecuteAll(prepared.value());
  ASSERT_TRUE(still_valid.ok()) << still_valid.status().ToString();
  EXPECT_EQ(still_valid.value().items, oracle.value().items);

  // Re-loading site.xml ITSELF makes the plan stale.
  ASSERT_TRUE(processor_
                  .LoadDocument("site.xml", testutil::TinySiteXml(),
                                {"item"})
                  .ok());
  auto stale = processor_.Execute(prepared.value());
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);

  // Re-preparing against the new catalog works again.
  auto fresh = processor_.Prepare(query_, options);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(processor_.Execute(fresh.value()).ok());
}

TEST_F(PreparedQueryTest, OutstandingCursorsDrainAcrossCatalogMutations) {
  // A cursor pins the snapshot its PreparedQuery was compiled against:
  // catalog mutations — even a reload of the very document it reads —
  // never invalidate an open cursor. No draining is required before a
  // mutation; the cursor finishes with correct results on its snapshot.
  PrepareOptions options;
  options.context_document = "site.xml";
  auto prepared = processor_.Prepare("//item", options);
  ASSERT_TRUE(prepared.ok());
  auto oracle = processor_.ExecuteAll(prepared.value());
  ASSERT_TRUE(oracle.ok());
  ASSERT_GE(oracle.value().result_count(), 2u);

  auto unexecuted = processor_.Execute(prepared.value());
  auto midstream = processor_.Execute(prepared.value());
  ASSERT_TRUE(unexecuted.ok());
  ASSERT_TRUE(midstream.ok());
  auto first = midstream.value()->FetchNext(1);
  ASSERT_TRUE(first.ok());

  // Mutate the catalog under both cursors: an unrelated load AND a
  // reload of the touched document itself.
  ASSERT_TRUE(
      processor_.LoadDocument("other.xml", testutil::TinyBibXml()).ok());
  ASSERT_TRUE(processor_
                  .LoadDocument("site.xml",
                                "<site><item><name>changed</name>"
                                "</item></site>")
                  .ok());

  // The mid-stream cursor finishes on the old snapshot.
  auto rest = midstream.value()->FetchAll();
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  std::vector<std::string> streamed = first.value();
  for (auto& item : rest.value()) streamed.push_back(std::move(item));
  EXPECT_EQ(streamed, oracle.value().items);

  // The not-yet-executed cursor runs its plan on the old snapshot too.
  auto late = unexecuted.value()->FetchAll();
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ(late.value(), oracle.value().items);

  // New sessions see the new catalog.
  auto fresh = processor_.Prepare("//item/name", options);
  ASSERT_TRUE(fresh.ok());
  auto fresh_result = processor_.ExecuteAll(fresh.value());
  ASSERT_TRUE(fresh_result.ok());
  ASSERT_EQ(fresh_result.value().result_count(), 1u);
  EXPECT_EQ(fresh_result.value().items[0], "<name>changed</name>");
}

TEST_F(PreparedQueryTest, DroppingIndexesInvalidatesPreparedPlans) {
  PrepareOptions options;
  options.context_document = "site.xml";
  auto prepared = processor_.Prepare(query_, options);
  ASSERT_TRUE(prepared.ok());
  processor_.DropRelationalIndexes();
  auto stale = processor_.Execute(prepared.value());
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PreparedQueryTest, ExecuteLimitsApplyPerExecution) {
  PrepareOptions options;
  options.context_document = "site.xml";
  auto prepared = processor_.Prepare(query_, options);
  ASSERT_TRUE(prepared.ok());
  for (int threads : {1, 8}) {
    // The plan executor must honor both DNF budgets per execution.
    ExecuteOptions timeout;
    timeout.threads = threads;
    timeout.limits.timeout_seconds = 1e-9;
    auto timed = processor_.ExecuteAll(prepared.value(), timeout);
    ASSERT_FALSE(timed.ok()) << "threads=" << threads;
    EXPECT_EQ(timed.status().code(), StatusCode::kTimeout);

    ExecuteOptions rows;
    rows.threads = threads;
    rows.limits.max_intermediate_rows = 1;
    auto bounded = processor_.ExecuteAll(prepared.value(), rows);
    ASSERT_FALSE(bounded.ok()) << "threads=" << threads;
    EXPECT_EQ(bounded.status().code(), StatusCode::kTimeout);

    // The same artifact still executes unlimited afterwards (budgets are
    // per execution, not baked into the plan).
    ExecuteOptions unlimited;
    unlimited.threads = threads;
    auto ok = processor_.ExecuteAll(prepared.value(), unlimited);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_GT(ok.value().result_count(), 0u);
  }
}

TEST_F(PreparedQueryTest, NativeModesPrepareWithoutRelationalCompilation) {
  PrepareOptions options;
  options.mode = Mode::kNativeWhole;
  options.context_document = "site.xml";
  auto prepared = processor_.Prepare("//item/name", options);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_NE(prepared.value()->core, nullptr);
  EXPECT_EQ(prepared.value()->stacked, nullptr);
  EXPECT_FALSE(prepared.value()->has_plan);
  auto result = processor_.ExecuteAll(prepared.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().result_count(), 0u);
}

// ---------------------------------------------------------------------------
// Parameterized prepared statements: `declare variable $x external;` turns
// $x into a marker bound per Execute — one compiled plan, many literals.

class ParameterizedQueryTest : public PreparedQueryTest {
 protected:
  const std::string param_query_ =
      "declare variable $minprice as xs:decimal external; "
      "//item[price > $minprice]/name";

  /// Loads the XMark document the paper queries read (persons person0 ..
  /// person6) and rebuilds the B-trees.
  void LoadAuction() {
    data::XmarkOptions xmark;
    xmark.scale = 0.05;
    xmark.seed = 42;
    ASSERT_TRUE(processor_
                    .LoadDocument("auction.xml", data::GenerateXmark(xmark),
                                  XmarkSegmentTags())
                    .ok());
    ASSERT_TRUE(processor_.CreateRelationalIndexes().ok());
  }

  static Result<RunResult> Bind(XQueryProcessor& processor,
                                const std::shared_ptr<const PreparedQuery>& pq,
                                Value v, int threads = 1) {
    ExecuteOptions exec;
    exec.threads = threads;
    exec.parameters["minprice"] = std::move(v);
    return processor.ExecuteAll(pq, exec);
  }
};

TEST_F(ParameterizedQueryTest, OnePlanServesALiteralFamily) {
  PrepareOptions options;
  options.context_document = "site.xml";
  auto prepared = processor_.Prepare(param_query_, options);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_TRUE(prepared.value()->has_plan);
  ASSERT_EQ(prepared.value()->parameters.size(), 1u);
  EXPECT_EQ(prepared.value()->parameters[0].name, "minprice");
  EXPECT_TRUE(prepared.value()->parameters[0].numeric);
  // Shipped SQL carries a prepared-statement marker, not a literal.
  EXPECT_NE(prepared.value()->sql.find("?"), std::string::npos)
      << prepared.value()->sql;

  // Each binding must agree with the equivalent literal query, serial and
  // morsel-parallel, off the ONE cached artifact.
  const std::pair<double, const char*> family[] = {
      {10.0, "//item[price > 10.0]/name"},
      {20.0, "//item[price > 20.0]/name"},
      {7.0, "//item[price > 7.0]/name"},
      {1000.0, "//item[price > 1000.0]/name"},
  };
  for (const auto& [value, literal_text] : family) {
    RunOptions run;
    run.context_document = "site.xml";
    auto literal = processor_.Run(literal_text, run);
    ASSERT_TRUE(literal.ok()) << literal.status().ToString();
    for (int threads : {1, 8}) {
      auto bound =
          Bind(processor_, prepared.value(), Value::Double(value), threads);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      EXPECT_EQ(bound.value().items, literal.value().items)
          << literal_text << " threads=" << threads;
    }
  }
  // Integer bindings hit the same numeric comparison.
  auto int_bound = Bind(processor_, prepared.value(), Value::Int(10));
  ASSERT_TRUE(int_bound.ok());
  EXPECT_EQ(int_bound.value().result_count(), 2u);

  // Re-preparing the same text is a cache hit on the same artifact: the
  // whole family shared one compilation.
  auto again = processor_.Prepare(param_query_, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().get(), prepared.value().get());
  EXPECT_GE(processor_.plan_cache_stats().hits, 1);
}

TEST_F(ParameterizedQueryTest, StringParametersUseTheValueColumn) {
  PrepareOptions options;
  options.context_document = "site.xml";
  auto prepared = processor_.Prepare(
      "declare variable $wanted external; //item[name = $wanted]/price",
      options);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_EQ(prepared.value()->parameters.size(), 1u);
  EXPECT_FALSE(prepared.value()->parameters[0].numeric);
  for (int threads : {1, 8}) {
    ExecuteOptions exec;
    exec.threads = threads;
    exec.parameters["wanted"] = Value::String("vase");
    auto result = processor_.ExecuteAll(prepared.value(), exec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().result_count(), 1u);
    EXPECT_EQ(result.value().items[0], "<price>7.0</price>");
    exec.parameters["wanted"] = Value::String("no-such-item");
    auto empty = processor_.ExecuteAll(prepared.value(), exec);
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(empty.value().result_count(), 0u);
  }
}

TEST_F(ParameterizedQueryTest, StringParameterReachesTheIndexProbe) {
  // Q3 with its id as a string parameter: the join-graph plan probes the
  // attribute B-tree with the bound string and tests each match's value
  // against it, so a bound string crosses the index probe's predicates.
  ASSERT_NO_FATAL_FAILURE(LoadAuction());
  const std::string query =
      "declare variable $id as xs:string external; "
      "/site/people/person[@id = $id]/name/text()";
  PrepareOptions options;
  options.mode = Mode::kJoinGraph;
  options.context_document = "auction.xml";
  auto prepared = processor_.Prepare(query, options);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_TRUE(prepared.value()->has_plan);
  options.mode = Mode::kNativeWhole;
  auto native = processor_.Prepare(query, options);
  ASSERT_TRUE(native.ok()) << native.status().ToString();

  for (const char* id : {"person0", "person6", "person7", ""}) {
    RunOptions run;
    run.mode = Mode::kJoinGraph;
    run.context_document = "auction.xml";
    auto literal = processor_.Run(
        std::string("/site/people/person[@id = \"") + id +
            "\"]/name/text()",
        run);
    ASSERT_TRUE(literal.ok()) << literal.status().ToString();
    const bool present = std::string(id) == "person0" ||
                         std::string(id) == "person6";
    EXPECT_EQ(literal.value().result_count(), present ? 1u : 0u) << id;
    ExecuteOptions exec;
    exec.parameters["id"] = Value::String(id);
    auto oracle = processor_.ExecuteAll(native.value(), exec);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_EQ(oracle.value().items, literal.value().items) << id;
    for (int threads : {1, 8}) {
      exec.threads = threads;
      auto bound = processor_.ExecuteAll(prepared.value(), exec);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      EXPECT_EQ(bound.value().items, literal.value().items)
          << id << " threads=" << threads;
    }
  }
}

TEST_F(ParameterizedQueryTest, FallbackPlansTakeParameters) {
  // Q2 isolates to a join graph, so join-graph mode binds the parameter
  // in the planned join graph; the bindings must select what the native
  // interpreter selects.
  ASSERT_NO_FATAL_FAILURE(LoadAuction());
  const std::string query =
      "declare variable $p as xs:decimal external; "
      "let $a := doc(\"auction.xml\") "
      "for $ca in $a//closed_auction[price > $p], "
      "    $i in $a//item, "
      "    $c in $a//category "
      "where $ca/itemref/@item = $i/@id "
      "  and $i/incategory/@category = $c/@id "
      "return $c/name";
  PrepareOptions options;
  options.mode = Mode::kJoinGraph;
  auto prepared = processor_.Prepare(query, options);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_FALSE(prepared.value()->used_fallback);
  EXPECT_TRUE(prepared.value()->has_plan);
  options.mode = Mode::kNativeWhole;
  auto native = processor_.Prepare(query, options);
  ASSERT_TRUE(native.ok()) << native.status().ToString();

  std::set<size_t> counts;
  for (double p : {10.0, 50.0, 100.0, 2000.0}) {
    ExecuteOptions exec;
    exec.parameters["p"] = Value::Double(p);
    auto oracle = processor_.ExecuteAll(native.value(), exec);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    counts.insert(oracle.value().result_count());
    for (int threads : {1, 8}) {
      exec.threads = threads;
      auto bound = processor_.ExecuteAll(prepared.value(), exec);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      EXPECT_EQ(bound.value().items, oracle.value().items)
          << "p=" << p << " threads=" << threads;
    }
  }
  // 22, 12, 7 and 0 rows: every binding selects a different result, and
  // 2000 is above every closing price.
  EXPECT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts.count(0u), 1u);
}

TEST_F(ParameterizedQueryTest, BindingsAreValidated) {
  PrepareOptions options;
  options.context_document = "site.xml";
  auto prepared = processor_.Prepare(param_query_, options);
  ASSERT_TRUE(prepared.ok());

  // Missing binding.
  auto missing = processor_.ExecuteAll(prepared.value(), ExecuteOptions{});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  // Unknown parameter name.
  ExecuteOptions unknown;
  unknown.parameters["minprice"] = Value::Double(1);
  unknown.parameters["typo"] = Value::Double(2);
  auto extra = processor_.ExecuteAll(prepared.value(), unknown);
  ASSERT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kInvalidArgument);

  // Type mismatch against the declaration.
  ExecuteOptions mistyped;
  mistyped.parameters["minprice"] = Value::String("ten");
  auto typed = processor_.ExecuteAll(prepared.value(), mistyped);
  ASSERT_FALSE(typed.ok());
  EXPECT_EQ(typed.status().code(), StatusCode::kInvalidArgument);

  // A NULL binding is legal and never matches (NULL comparison
  // semantics) — the SQL-ish contract for parameter markers.
  ExecuteOptions null_bound;
  null_bound.parameters["minprice"] = Value::Null();
  auto none = processor_.ExecuteAll(prepared.value(), null_bound);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none.value().result_count(), 0u);

  // Binding parameters to a parameterless query is rejected too.
  PrepareOptions plain;
  plain.context_document = "site.xml";
  auto no_params = processor_.Prepare("//item", plain);
  ASSERT_TRUE(no_params.ok());
  ExecuteOptions stray;
  stray.parameters["minprice"] = Value::Double(1);
  auto rejected = processor_.ExecuteAll(no_params.value(), stray);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ParameterizedQueryTest, StackedModeExecutesParameters) {
  // The stacked lane resolves parameter markers in its compiled plan at
  // execute time (ResolveParams substitution) — one cached stacked plan
  // serves the literal family, serial and morsel-parallel executions
  // agreeing with the equivalent literal query.
  PrepareOptions options;
  options.mode = Mode::kStacked;
  options.context_document = "site.xml";
  auto prepared = processor_.Prepare(param_query_, options);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_EQ(prepared.value()->parameters.size(), 1u);

  const std::pair<double, const char*> family[] = {
      {10.0, "//item[price > 10.0]/name"},
      {20.0, "//item[price > 20.0]/name"},
      {7.0, "//item[price > 7.0]/name"},
      {1000.0, "//item[price > 1000.0]/name"},
  };
  for (const auto& [value, literal_text] : family) {
    RunOptions run;
    run.mode = Mode::kStacked;
    run.context_document = "site.xml";
    auto literal = processor_.Run(literal_text, run);
    ASSERT_TRUE(literal.ok()) << literal.status().ToString();
    for (int threads : {1, 8}) {
      auto bound =
          Bind(processor_, prepared.value(), Value::Double(value), threads);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      EXPECT_EQ(bound.value().items, literal.value().items)
          << value << " threads=" << threads;
    }
  }

  // An unbound execution is still rejected by the binding validation.
  auto missing = processor_.ExecuteAll(prepared.value(), ExecuteOptions{});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ParameterizedQueryTest, NativeModesExecuteParameters) {
  // The native engine interprets literals directly, so the cursor binds
  // the parameter values into a literal Core tree per execution
  // (BindParams). One prepared query serves the literal family with
  // results identical to the equivalent literal queries, in both native
  // lanes.
  for (Mode mode : {Mode::kNativeWhole, Mode::kNativeSegmented}) {
    PrepareOptions options;
    options.mode = mode;
    options.context_document = "site.xml";
    auto prepared = processor_.Prepare(param_query_, options);
    ASSERT_TRUE(prepared.ok())
        << ModeToString(mode) << ": " << prepared.status().ToString();
    ASSERT_EQ(prepared.value()->parameters.size(), 1u);

    for (double value : {10.0, 20.0, 7.0, 1000.0}) {
      RunOptions run;
      run.mode = mode;
      run.context_document = "site.xml";
      const std::string literal_text = "//item[price > " +
                                       std::to_string(value) + "]/name";
      auto literal = processor_.Run(literal_text, run);
      ASSERT_TRUE(literal.ok()) << literal.status().ToString();
      auto bound = Bind(processor_, prepared.value(), Value::Double(value));
      ASSERT_TRUE(bound.ok())
          << ModeToString(mode) << ": " << bound.status().ToString();
      EXPECT_EQ(bound.value().items, literal.value().items)
          << ModeToString(mode) << " value " << value;
    }

    // NULL binding: the marker becomes the empty sequence, and an
    // existential comparison over () is false — no rows, no error.
    ExecuteOptions null_bound;
    null_bound.parameters["minprice"] = Value::Null();
    auto none = processor_.ExecuteAll(prepared.value(), null_bound);
    ASSERT_TRUE(none.ok())
        << ModeToString(mode) << ": " << none.status().ToString();
    EXPECT_EQ(none.value().result_count(), 0u) << ModeToString(mode);
  }
}

TEST(PreparedQueryStandaloneTest, ExecuteRejectsNullAndNativeNeedsDocuments) {
  XQueryProcessor processor;
  EXPECT_FALSE(processor.Execute(nullptr).ok());
  PrepareOptions options;
  options.mode = Mode::kNativeWhole;
  auto prepared = processor.Prepare("doc(\"x.xml\")//a", options);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto cursor = processor.Execute(prepared.value());
  ASSERT_FALSE(cursor.ok());
  EXPECT_EQ(cursor.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xqjg::api

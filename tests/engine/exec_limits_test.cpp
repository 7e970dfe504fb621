// ExecLimits DNF guards: both budget knobs must surface Status::Timeout
// through every entry point (columnar::EvaluateColumnar, a drained
// OpenSequenceStreamColumnar, and the processor facade over stacked and
// join-graph plans) instead of crashing or looping — they emulate the
// paper's 20-hour cutoff, so tripping them is a supported outcome, not a
// fault.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/api/processor.h"
#include "src/engine/columnar/columnar_exec.h"
#include "src/xml/parser.h"
#include "tests/testutil/fixtures.h"

namespace xqjg::engine {
namespace {

using algebra::MakeCross;
using algebra::MakeLiteral;
using algebra::MakeProject;
using algebra::OpPtr;

OpPtr WideLiteral(const std::string& col, int rows) {
  std::vector<std::vector<Value>> data;
  data.reserve(rows);
  for (int i = 0; i < rows; ++i) data.push_back({Value::Int(i)});
  return MakeProject(MakeLiteral({"n"}, std::move(data)), {{col, "n"}});
}

TEST(ExecLimits, TimeoutReturnsStatusTimeout) {
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  // 500x500 cross product; the 1µs budget is over before the first
  // operator materializes, so CheckBudget trips instead of crashing.
  OpPtr cross = MakeCross(WideLiteral("a", 500), WideLiteral("b", 500));
  ExecLimits limits;
  limits.timeout_seconds = 1e-6;
  auto result = columnar::EvaluateColumnar(cross, doc, limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
      << result.status().ToString();
}

TEST(ExecLimits, RowBudgetReturnsStatusTimeout) {
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  OpPtr cross = MakeCross(WideLiteral("a", 100), WideLiteral("b", 100));
  ExecLimits limits;
  limits.max_intermediate_rows = 50;
  auto result = columnar::EvaluateColumnar(cross, doc, limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
      << result.status().ToString();
}

TEST(ExecLimits, NonPositiveLimitsMeanUnlimited) {
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  OpPtr cross = MakeCross(WideLiteral("a", 40), WideLiteral("b", 40));
  ExecLimits limits;
  limits.timeout_seconds = 0;
  limits.max_intermediate_rows = 0;
  limits.max_memory_bytes = 0;
  auto result = columnar::EvaluateColumnar(cross, doc, limits);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows, 1600u);
}

TEST(ExecLimits, RowBudgetGuardsCompiledQuery) {
  xml::DocTable doc = testutil::LoadDoc("site.xml", testutil::TinySiteXml());
  auto plan = testutil::CompileToPlan("doc(\"site.xml\")//item", "site.xml");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExecLimits limits;
  limits.max_intermediate_rows = 2;  // doc relation alone exceeds this
  auto seq = testutil::Drain(
      columnar::OpenSequenceStreamColumnar(plan.value(), doc, limits));
  ASSERT_FALSE(seq.ok());
  EXPECT_EQ(seq.status().code(), StatusCode::kTimeout)
      << seq.status().ToString();
  // The same plan without limits must still evaluate (guard is not sticky).
  auto ok = testutil::Drain(
      columnar::OpenSequenceStreamColumnar(plan.value(), doc, {}));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().size(), 3u);
}

TEST(ExecLimits, ProcessorTimeoutSurfacesInStackedMode) {
  api::XQueryProcessor processor;
  ASSERT_TRUE(processor
                  .LoadDocument("site.xml", testutil::TinySiteXml())
                  .ok());
  api::RunOptions options;
  options.mode = api::Mode::kStacked;
  options.context_document = "site.xml";
  options.timeout_seconds = 1e-9;
  auto result = processor.Run("//item[price > 10.0]/name", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
      << result.status().ToString();
}

TEST(ExecLimits, ColumnarExecutorHonorsBothBudgets) {
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  OpPtr cross = MakeCross(WideLiteral("a", 200), WideLiteral("b", 200));
  ExecOptions timeout;
  timeout.limits.timeout_seconds = 1e-6;
  auto timed = columnar::EvaluateColumnar(cross, doc, timeout);
  ASSERT_FALSE(timed.ok());
  EXPECT_EQ(timed.status().code(), StatusCode::kTimeout);
  ExecOptions rows;
  rows.limits.max_intermediate_rows = 50;
  auto bounded = columnar::EvaluateColumnar(cross, doc, rows);
  ASSERT_FALSE(bounded.ok());
  EXPECT_EQ(bounded.status().code(), StatusCode::kTimeout);
  // Unlimited still evaluates.
  auto ok = columnar::EvaluateColumnar(cross, doc);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().num_rows, 40000u);
}

TEST(ExecLimits, RankAndSerializeLoopsHonorTheDeadline) {
  // Sort-heavy operators (ϱ and the serialize tail) must surface Timeout
  // instead of sorting past the budget.
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  OpPtr ranked = algebra::MakeRank(WideLiteral("a", 5000), "rnk", {"a"});
  ExecOptions options;
  options.limits.timeout_seconds = 1e-9;
  auto col = columnar::EvaluateColumnar(ranked, doc, options);
  ASSERT_FALSE(col.ok()) << "rank";
  EXPECT_EQ(col.status().code(), StatusCode::kTimeout);
  xml::DocTable site = testutil::LoadDoc("site.xml", testutil::TinySiteXml());
  auto plan = testutil::CompileToPlan("doc(\"site.xml\")//item", "site.xml");
  ASSERT_TRUE(plan.ok());
  auto col_seq = testutil::Drain(
      columnar::OpenSequenceStreamColumnar(plan.value(), site, options));
  ASSERT_FALSE(col_seq.ok()) << "serialize";
  EXPECT_EQ(col_seq.status().code(), StatusCode::kTimeout);
}

TEST(ExecLimits, PhysicalPlanExecutorsHonorTheDeadline) {
  // The cost-based engine, serial and morsel-parallel: Timeout must
  // surface through the processor facade's join-graph mode.
  api::XQueryProcessor processor;
  ASSERT_TRUE(processor
                  .LoadDocument("site.xml", testutil::TinySiteXml())
                  .ok());
  for (int threads : {1, 8}) {
    api::RunOptions options;
    options.mode = api::Mode::kJoinGraph;
    options.context_document = "site.xml";
    options.timeout_seconds = 1e-9;
    options.threads = threads;
    auto result = processor.Run("//item[price > 10.0]/name", options);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
        << result.status().ToString();
  }
}

TEST(ExecLimits, PhysicalPlanExecutorsHonorTheRowBudget) {
  // max_intermediate_rows through the cost-based engine, serial and
  // morsel-parallel. Without relational indexes the plan is
  // TBSCAN + NLJOIN (table-scan and join-loop guard points); with the
  // Table VI set it probes IXSCANs (the index slice walk is a guard point).
  for (bool with_indexes : {false, true}) {
    api::XQueryProcessor processor;
    ASSERT_TRUE(processor
                    .LoadDocument("site.xml", testutil::TinySiteXml())
                    .ok());
    if (with_indexes) {
      ASSERT_TRUE(processor.CreateRelationalIndexes().ok());
    }
    api::PrepareOptions prep;
    prep.context_document = "site.xml";
    auto prepared = processor.Prepare("//item[price > 10.0]/name", prep);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    ASSERT_TRUE(prepared.value()->has_plan);
    for (int threads : {1, 8}) {
      api::ExecuteOptions bounded;
      bounded.threads = threads;
      bounded.limits.max_intermediate_rows = 1;
      auto result = processor.ExecuteAll(prepared.value(), bounded);
      ASSERT_FALSE(result.ok())
          << (with_indexes ? "indexed" : "bare") << "/threads=" << threads;
      EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
          << result.status().ToString();
      // The budget is per execution: the same plan still runs unlimited.
      auto ok = processor.ExecuteAll(prepared.value(),
                                     api::ExecuteOptions{});
      ASSERT_TRUE(ok.ok()) << ok.status().ToString();
      EXPECT_GT(ok.value().result_count(), 1u);
    }
  }
}

TEST(ExecLimits, LateMaterializedFilterChainsHonorBothBudgets) {
  // A σ∘σ∘δ chain runs as selection vectors in the columnar executor
  // (no gathers until the tail); both budget knobs must still trip inside
  // the selection loops.
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  OpPtr lit = WideLiteral("a", 5000);
  using algebra::MakeSelect;
  using algebra::Predicate;
  using algebra::Term;
  OpPtr chain = MakeSelect(
      MakeSelect(algebra::MakeDistinct(lit),
                 Predicate::Single(Term::Col("a"), algebra::CmpOp::kGt,
                                   Term::Const(Value::Int(10)))),
      Predicate::Single(Term::Col("a"), algebra::CmpOp::kLt,
                        Term::Const(Value::Int(4000))));
  ExecOptions timeout;
  timeout.limits.timeout_seconds = 1e-9;
  auto timed = columnar::EvaluateColumnar(chain, doc, timeout);
  ASSERT_FALSE(timed.ok());
  EXPECT_EQ(timed.status().code(), StatusCode::kTimeout);
  ExecOptions rows;
  rows.limits.max_intermediate_rows = 100;
  auto bounded = columnar::EvaluateColumnar(chain, doc, rows);
  ASSERT_FALSE(bounded.ok());
  EXPECT_EQ(bounded.status().code(), StatusCode::kTimeout);
  // Unlimited: the lazy chain yields values 11..3999 in order.
  auto col = columnar::EvaluateColumnar(chain, doc);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  std::vector<int64_t> values;
  for (const auto& row : testutil::Rows(col.value())) {
    values.push_back(row[0].AsInt());
  }
  std::vector<int64_t> expected(3989);
  std::iota(expected.begin(), expected.end(), 11);
  EXPECT_EQ(values, expected);
}

TEST(ExecLimits, DeferredGatherBoundariesHonorBudgets) {
  // A compiled query's σ/π chain stays lazy until the serialize sort —
  // the gather boundary. Budgets must surface through the full pipeline
  // (and through the dictionary-code name filters).
  xml::DocTable site = testutil::LoadDoc("site.xml", testutil::TinySiteXml());
  auto plan =
      testutil::CompileToPlan("doc(\"site.xml\")//item[price > 10.0]/name",
                              "site.xml");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto eval = [&](const ExecOptions& options) {
    return testutil::Drain(
        columnar::OpenSequenceStreamColumnar(plan.value(), site, options));
  };
  ExecOptions timeout;
  timeout.limits.timeout_seconds = 1e-9;
  auto timed = eval(timeout);
  ASSERT_FALSE(timed.ok());
  EXPECT_EQ(timed.status().code(), StatusCode::kTimeout);
  ExecOptions rows;
  rows.limits.max_intermediate_rows = 2;  // doc relation alone exceeds
  auto bounded = eval(rows);
  ASSERT_FALSE(bounded.ok());
  EXPECT_EQ(bounded.status().code(), StatusCode::kTimeout);
  auto ok = eval(ExecOptions{});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().size(), 2u);  // clock (12.5) and lamp (30.0)
}

TEST(ExecLimits, PhysicalPlanNamePredicatesHonorTheRowBudget) {
  // The compiled dict-code equality quals of join-graph plans
  // (name = '...') sit inside every scan and probe; the row budget must trip
  // there with and without B-tree indexes, serial and morsel-parallel.
  for (bool with_indexes : {false, true}) {
    api::XQueryProcessor processor;
    ASSERT_TRUE(processor
                    .LoadDocument("site.xml", testutil::TinySiteXml())
                    .ok());
    if (with_indexes) {
      ASSERT_TRUE(processor.CreateRelationalIndexes().ok());
    }
    for (int threads : {1, 8}) {
      api::RunOptions options;
      options.mode = api::Mode::kJoinGraph;
      options.context_document = "site.xml";
      options.threads = threads;
      auto ok = processor.Run("//regions//item/name", options);
      ASSERT_TRUE(ok.ok()) << ok.status().ToString();
      EXPECT_EQ(ok.value().result_count(), 3u);
      api::RunOptions bounded = options;
      bounded.timeout_seconds = 1e-9;
      auto timed = processor.Run("//regions//item/name", bounded);
      ASSERT_FALSE(timed.ok())
          << (with_indexes ? "indexed" : "bare") << "/threads=" << threads;
      EXPECT_EQ(timed.status().code(), StatusCode::kTimeout);
    }
  }
}

}  // namespace
}  // namespace xqjg::engine

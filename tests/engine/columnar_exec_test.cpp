// Columnar batch executor: typed-column round trips, the doc relation
// batch's literal cells and its agreement with the DocTable accessors,
// every algebra operator on hand-built plans against literal expected
// tables (σ, π, ⋈ with and without a residual, the nested-loop range join,
// ×, δ, #, ϱ with ties, NULL and mixed-type comparison semantics, the row
// budget), the NULL-join-key regression (NULL keys must never match in a
// hash join, in an algebra plan and in a lowered join-graph plan), and the
// memoization regression (shared sub-plans are materialized — and counted
// — exactly once).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/value_column.h"
#include "src/engine/columnar/column_batch.h"
#include "src/engine/columnar/columnar_exec.h"
#include "src/engine/columnar/plan_exec.h"
#include "src/engine/database.h"
#include "src/engine/planner.h"
#include "src/xml/serializer.h"
#include "tests/testutil/fixtures.h"

namespace xqjg::engine {
namespace {

using algebra::CmpOp;
using algebra::MakeCross;
using algebra::MakeDistinct;
using algebra::MakeJoin;
using algebra::MakeLiteral;
using algebra::MakeProject;
using algebra::MakeRank;
using algebra::MakeRowId;
using algebra::MakeSelect;
using algebra::OpPtr;
using algebra::Predicate;
using algebra::Term;

using Table = std::vector<std::vector<Value>>;

/// A table of int64 cells, row by row.
Table IntTable(const std::vector<std::vector<int64_t>>& rows) {
  Table out;
  for (const auto& row : rows) {
    std::vector<Value> values;
    for (int64_t v : row) values.push_back(Value::Int(v));
    out.push_back(std::move(values));
  }
  return out;
}

/// One-column literal `col` holding `values`.
OpPtr IntsLiteral(const std::string& col, std::vector<int64_t> values) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(values.size());
  for (int64_t v : values) rows.push_back({Value::Int(v)});
  return MakeLiteral({col}, std::move(rows));
}

/// Runs `plan` on the pipeline and returns its rows (none on error).
Table EvalRows(const OpPtr& plan, const xml::DocTable& doc) {
  auto result = columnar::EvaluateColumnar(plan, doc);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  EXPECT_EQ(result.value().schema, plan->schema);
  return testutil::Rows(result.value());
}

TEST(ValueColumn, RoundTripsMixedAndNullValues) {
  std::vector<Value> values = {
      Value::Null(),          Value::Int(7),      Value::Double(2.5),
      Value::String("text"),  Value::Null(),      Value::Int(-3),
  };
  ValueColumn col = ColumnFromValues(values);
  ASSERT_EQ(col.size(), values.size());
  EXPECT_EQ(col.tag(), ColumnTag::kMixed);
  std::vector<Value> back = ColumnToValues(col);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(values[i].is_null() == back[i].is_null() &&
                (values[i].is_null() || values[i] == back[i]))
        << i;
    EXPECT_EQ(col.GetValue(i).Hash(), values[i].Hash()) << i;
  }
}

TEST(ValueColumn, NullsBeforeFirstValueDecideTagLate) {
  // The column must survive NULL rows arriving before the type is known.
  ValueColumn col;
  col.AppendNull();
  col.AppendNull();
  col.Append(Value::String("s"));
  ASSERT_EQ(col.tag(), ColumnTag::kString);
  EXPECT_TRUE(col.GetValue(0).is_null());
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_EQ(col.GetValue(2).AsString(), "s");
}

TEST(ValueColumn, TypedPathMatchesValueSemantics) {
  ValueColumn ints = ValueColumn::Ints({5, 6, 5});
  ValueColumn doubles = ValueColumn::Doubles({5.0, 6.5, 4.0});
  // Cross-type numeric equality and hashing must mirror Value.
  EXPECT_TRUE(ValueColumn::EqualAt(ints, 0, doubles, 0));
  EXPECT_FALSE(ValueColumn::EqualAt(ints, 1, doubles, 1));
  EXPECT_EQ(ints.HashAt(0), doubles.HashAt(0));
  EXPECT_TRUE(ValueColumn::SortLessAt(doubles, 2, ints, 0));
  EXPECT_FALSE(ValueColumn::SortLessAt(ints, 0, doubles, 0));
}

TEST(AlgebraExec, BuildDocRelationColumns) {
  // Literal cells of the doc relation the executor builds for a five-node
  // document: DOC, <a>, @x, <b>, text.
  xml::DocTable doc =
      testutil::LoadDoc("d.xml", "<a x=\"3.5\"><b>hi</b></a>");
  BudgetClock clock;
  auto rel = columnar::DocRelationBatch(doc, &clock);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_EQ(rel.value().schema, algebra::DocColumns());
  const Table rows = testutil::Rows(rel.value());
  ASSERT_EQ(rows.size(), 5u);
  const auto col = [&](const char* name) {
    return static_cast<size_t>(rel.value().ColumnIndex(name));
  };
  EXPECT_EQ(rows[2][col("value")].AsString(), "3.5");  // @x
  EXPECT_DOUBLE_EQ(rows[2][col("data")].AsDouble(), 3.5);
  EXPECT_TRUE(rows[1][col("value")].is_null()) << "<a> has size 3";
}

TEST(ColumnBatch, DocRelationBatchMatchesDocTable) {
  // Every cell of the doc relation against the DocTable accessors.
  BudgetClock clock;
  xml::DocTable doc = testutil::LoadDoc("bib.xml", testutil::TinyBibXml());
  auto batch = columnar::DocRelationBatch(doc, &clock);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().schema, algebra::DocColumns());
  Table expected;
  for (int64_t pre = 0; pre < doc.row_count(); ++pre) {
    expected.push_back(
        {Value::Int(pre), Value::Int(doc.size(pre)), Value::Int(doc.level(pre)),
         Value::Int(static_cast<int64_t>(doc.kind(pre))),
         Value::String(doc.name(pre)),
         doc.has_value(pre) ? Value::String(doc.value(pre)) : Value::Null(),
         doc.has_data(pre) ? Value::Double(doc.data(pre)) : Value::Null(),
         Value::Int(doc.Parent(pre)), Value::Int(doc.Root(pre))});
  }
  EXPECT_EQ(testutil::Rows(batch.value()), expected);
}

TEST(ColumnarExec, OperatorsMatchLiteralTablesOnHandBuiltPlans) {
  xml::DocTable doc = testutil::LoadDoc("site.xml", testutil::TinySiteXml());
  OpPtr lit = IntsLiteral("x", {5, 3, 9, 3, 7, 1});
  // σ
  OpPtr sel = MakeSelect(
      lit, Predicate::Single(Term::Col("x"), CmpOp::kGt, Term::Const(Value::Int(2))));
  EXPECT_EQ(EvalRows(sel, doc), IntTable({{5}, {3}, {9}, {3}, {7}}));
  // ⋈ on x = y: left rows in order, each with its matches in right order
  OpPtr right = IntsLiteral("y", {3, 9, 9, 2});
  Predicate join_pred =
      Predicate::Single(Term::Col("x"), CmpOp::kEq, Term::Col("y"));
  EXPECT_EQ(EvalRows(MakeJoin(lit, right, join_pred), doc),
            IntTable({{3, 3}, {9, 9}, {9, 9}, {3, 3}}));
  // × with range predicate forced into the residual nested loop
  Predicate range_pred =
      Predicate::Single(Term::Col("x"), CmpOp::kLt, Term::Col("y"));
  EXPECT_EQ(EvalRows(MakeJoin(lit, right, range_pred), doc),
            IntTable({{5, 9}, {5, 9}, {3, 9}, {3, 9}, {3, 9}, {3, 9},
                      {7, 9}, {7, 9}, {1, 3}, {1, 9}, {1, 9}, {1, 2}}));
  // ×: left-major order
  std::vector<std::vector<int64_t>> cross;
  for (int64_t x : {5, 3, 9, 3, 7, 1}) {
    for (int64_t y : {3, 9, 9, 2}) cross.push_back({x, y});
  }
  EXPECT_EQ(EvalRows(MakeCross(lit, right), doc), IntTable(cross));
  // δ keeps first occurrences in order
  EXPECT_EQ(EvalRows(MakeDistinct(MakeProject(lit, {{"d", "x"}})), doc),
            IntTable({{5}, {3}, {9}, {7}, {1}}));
  // ϱ: 1, 3, 3, 5, 7, 9 rank 1, 2, 2, 4, 5, 6
  EXPECT_EQ(EvalRows(MakeRank(lit, "rnk", {"x"}), doc),
            IntTable({{5, 4}, {3, 2}, {9, 6}, {3, 2}, {7, 5}, {1, 1}}));
  // Compiled query end to end (serialize root) on a real document: the
  // drained sequence, and the item column of the evaluated table.
  auto plan = testutil::CompileToPlan("//item[price > 10.0]/name", "site.xml");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto seq = testutil::Drain(
      columnar::OpenSequenceStreamColumnar(plan.value(), doc, {}));
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  std::vector<std::string> items;
  for (int64_t pre : seq.value()) {
    items.push_back(xml::SerializeSubtree(doc, pre));
  }
  EXPECT_EQ(items, (std::vector<std::string>{"<name>clock</name>",
                                             "<name>lamp</name>"}));
  auto table = columnar::EvaluateColumnar(plan.value(), doc);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const int item = table.value().ColumnIndex(plan.value()->col);
  ASSERT_GE(item, 0);
  std::vector<int64_t> item_col;
  for (const auto& row : testutil::Rows(table.value())) {
    item_col.push_back(row[static_cast<size_t>(item)].AsInt());
  }
  EXPECT_EQ(item_col, seq.value());
}

TEST(ColumnarExec, NullJoinKeysNeverMatch) {
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  // Left: ids 1, 2, NULL, NULL; right: ids 2, NULL, NULL, 3. A NULL key
  // must join with nothing — in particular not with another NULL.
  OpPtr left = MakeLiteral(
      {"k", "lv"}, {{Value::Int(1), Value::String("l1")},
                    {Value::Int(2), Value::String("l2")},
                    {Value::Null(), Value::String("l3")},
                    {Value::Null(), Value::String("l4")}});
  OpPtr right = MakeLiteral(
      {"q", "rv"}, {{Value::Int(2), Value::String("r1")},
                    {Value::Null(), Value::String("r2")},
                    {Value::Null(), Value::String("r3")},
                    {Value::Int(3), Value::String("r4")}});
  OpPtr join = MakeJoin(
      left, right, Predicate::Single(Term::Col("k"), CmpOp::kEq, Term::Col("q")));
  // only k=2 ⋈ q=2
  EXPECT_EQ(EvalRows(join, doc),
            (Table{{Value::Int(2), Value::String("l2"), Value::Int(2),
                    Value::String("r1")}}));
}

TEST(ColumnarExec, NullKeysNeverMatchInPhysicalHashJoin) {
  // Engine-level regression: d0.value = d1.value over a document where
  // most rows have NULL value. NULL-valued rows must not pair up.
  xml::DocTable doc = testutil::LoadDoc(
      "v.xml", "<v><b>5</b><c>5</c><d>7</d><e><f>5</f></e></v>");
  auto db = Database::Build(doc);
  opt::JoinGraph graph;
  graph.num_aliases = 2;
  auto col_term = [](int alias, const char* col) {
    opt::QualTerm t;
    t.alias = alias;
    t.col = col;
    return t;
  };
  opt::QualTerm d0v = col_term(0, "value");
  opt::QualTerm d1v = col_term(1, "value");
  graph.predicates.push_back({d0v, CmpOp::kEq, d1v});
  graph.item = col_term(0, "pre");
  graph.select_list = {graph.item};
  // Expected pairs by brute force over the doc relation.
  std::vector<int64_t> expected;
  const int value_col = db->ColumnIndex("value");
  for (int64_t i = 0; i < db->row_count(); ++i) {
    for (int64_t j = 0; j < db->row_count(); ++j) {
      const Value a = db->Column(value_col).GetValue(static_cast<size_t>(i));
      const Value b = db->Column(value_col).GetValue(static_cast<size_t>(j));
      if (!a.is_null() && !b.is_null() && a == b) expected.push_back(i);
    }
  }
  std::sort(expected.begin(), expected.end());
  // Hand-built HSJOIN plan so the hash-join path itself is exercised (the
  // optimizer may otherwise prefer an index nested loop).
  PhysicalPlan plan;
  plan.graph = &graph;
  auto scan0 = std::make_unique<PhysNode>();
  scan0->kind = PhysKind::kTbScan;
  scan0->alias = 0;
  auto scan1 = std::make_unique<PhysNode>();
  scan1->kind = PhysKind::kTbScan;
  scan1->alias = 1;
  auto join = std::make_unique<PhysNode>();
  join->kind = PhysKind::kHsJoin;
  join->preds = graph.predicates;
  join->left = std::move(scan0);
  join->right = std::move(scan1);
  plan.root = std::move(join);
  auto seq = testutil::Drain(
      columnar::OpenPlanStreamColumnar(plan, *db, {}, nullptr));
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(seq.value(), expected) << "hand-built";
  // And the cost-based plan must agree as well.
  auto planned = PlanJoinGraph(graph, *db);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  auto planned_seq = testutil::Drain(
      columnar::OpenPlanStreamColumnar(planned.value(), *db, {}, nullptr));
  ASSERT_TRUE(planned_seq.ok()) << planned_seq.status().ToString();
  EXPECT_EQ(planned_seq.value(), expected) << "planned";
}

TEST(ColumnarExec, SharedSubPlansMaterializeOnce) {
  // Regression for the memo deep-copy bug: a sub-plan shared by two
  // parents must be materialized (and counted) exactly once.
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  OpPtr shared = IntsLiteral("n", {1, 2, 3, 4, 5});
  OpPtr left = MakeProject(shared, {{"x", "n"}});
  OpPtr right = MakeProject(shared, {{"y", "n"}});
  OpPtr cross = MakeCross(left, right);
  ExecStats stats;
  ExecOptions options;
  options.stats = &stats;
  auto result = columnar::EvaluateColumnar(cross, doc, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows, 25u);
  // shared (5) + two projections (5 + 5) + cross (25); a per-hit deep
  // copy of the memo would double the shared table.
  EXPECT_EQ(stats.tuples_materialized, 40);
  EXPECT_EQ(stats.rows_out, 25);
}

// ---------------------------------------------------------------------------
// Operator semantics of the table algebra, one behaviour per case.

TEST(AlgebraExec, SelectAndProject) {
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  OpPtr plan = MakeProject(
      MakeSelect(IntsLiteral("n", {1, 5, 3, 5}),
                 Predicate::Single(Term::Col("n"), CmpOp::kGe,
                                   Term::Const(Value::Int(3)))),
      {{"m", "n"}});
  EXPECT_EQ(plan->schema, (std::vector<std::string>{"m"}));
  EXPECT_EQ(EvalRows(plan, doc), IntTable({{5}, {3}, {5}}));
}

TEST(AlgebraExec, HashJoinAndResidual) {
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  OpPtr left = MakeProject(IntsLiteral("n", {1, 2, 3}), {{"a", "n"}});
  OpPtr right = MakeProject(IntsLiteral("n", {2, 3, 3, 4}), {{"b", "n"}});
  Predicate equi =
      Predicate::Single(Term::Col("a"), CmpOp::kEq, Term::Col("b"));
  EXPECT_EQ(EvalRows(MakeJoin(left, right, equi), doc),
            IntTable({{2, 2}, {3, 3}, {3, 3}}));
  // A residual over both sides filters the hash matches: a + b > 4.
  Predicate residual = equi;
  residual.And(Term::ColSum("a", "b"), CmpOp::kGt, Term::Const(Value::Int(4)));
  EXPECT_EQ(EvalRows(MakeJoin(left, right, residual), doc),
            IntTable({{3, 3}, {3, 3}}));
}

TEST(AlgebraExec, RangeJoinFallsBackToNestedLoop) {
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  OpPtr left = MakeProject(IntsLiteral("n", {1, 4}), {{"a", "n"}});
  OpPtr right = MakeProject(IntsLiteral("n", {2, 3, 5}), {{"b", "n"}});
  Predicate p = Predicate::Single(Term::Col("a"), CmpOp::kLt, Term::Col("b"));
  EXPECT_EQ(EvalRows(MakeJoin(left, right, p), doc),
            IntTable({{1, 2}, {1, 3}, {1, 5}, {4, 5}}));
}

TEST(AlgebraExec, DistinctAndRowId) {
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  EXPECT_EQ(EvalRows(MakeDistinct(IntsLiteral("n", {2, 1, 2, 2, 1})), doc),
            IntTable({{2}, {1}}));
  // Row ids are unique: 1, 2, 3 in row order.
  EXPECT_EQ(EvalRows(MakeRowId(IntsLiteral("n", {7, 7, 7}), "id"), doc),
            IntTable({{7, 1}, {7, 2}, {7, 3}}));
}

TEST(AlgebraExec, RankUsesRankSemanticsWithTies) {
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  // values 10, 20, 30, 30 rank 1, 2, 3, 3: ties share their first row's
  // rank (the isolation rules depend on this, DESIGN.md §5)
  EXPECT_EQ(EvalRows(MakeRank(IntsLiteral("n", {30, 10, 30, 20}), "r", {"n"}),
                     doc),
            IntTable({{30, 3}, {10, 1}, {30, 3}, {20, 2}}));
}

TEST(AlgebraExec, NullComparesFalse) {
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  OpPtr lit = MakeLiteral({"v"}, {{Value::Null()}, {Value::Int(1)}});
  EXPECT_EQ(EvalRows(MakeSelect(lit, Predicate::Single(
                                         Term::Col("v"), CmpOp::kEq,
                                         Term::Const(Value::Null()))),
                     doc),
            Table{})
      << "NULL = NULL is not true";
  EXPECT_EQ(EvalRows(MakeSelect(lit, Predicate::Single(
                                         Term::Col("v"), CmpOp::kNe,
                                         Term::Const(Value::Int(0)))),
                     doc),
            IntTable({{1}}))
      << "NULL != 0 is not true either";
}

TEST(AlgebraExec, TermAdditionMixedTypes) {
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  OpPtr lit = MakeLiteral({"a", "b"},
                          {{Value::Int(1), Value::Double(2.5)},
                           {Value::Int(5), Value::Double(0.5)}});
  // 1 + 2.5 > 4 fails, 5 + 0.5 > 4 holds
  Predicate sum_gt = Predicate::Single(Term::ColSum("a", "b"), CmpOp::kGt,
                                       Term::Const(Value::Double(4.0)));
  EXPECT_EQ(EvalRows(MakeSelect(lit, sum_gt), doc),
            (Table{{Value::Int(5), Value::Double(0.5)}}));
}

TEST(AlgebraExec, RowBudgetTriggersDnf) {
  xml::DocTable doc = testutil::LoadDoc("x", "<x/>");
  OpPtr big = IntsLiteral("n", std::vector<int64_t>(200, 1));
  OpPtr rebig = MakeProject(big, {{"m", "n"}});
  OpPtr cross = MakeCross(big, rebig);  // 40000 rows
  ExecLimits limits;
  limits.max_intermediate_rows = 1000;
  auto result = columnar::EvaluateColumnar(cross, doc, limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

}  // namespace
}  // namespace xqjg::engine

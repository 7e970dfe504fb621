// Columnar batch executor: typed-column round trips, operator-level
// agreement with the row evaluator on hand-built plans, the NULL-join-key
// regression (NULL keys must never match in a hash join, in an algebra
// plan and in a lowered join-graph plan), and the memoization regression
// (shared sub-plans are materialized — and counted — exactly once).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/value_column.h"
#include "src/engine/algebra_exec.h"
#include "src/engine/columnar/column_batch.h"
#include "src/engine/columnar/columnar_exec.h"
#include "src/engine/columnar/plan_exec.h"
#include "src/engine/database.h"
#include "src/engine/planner.h"
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
using algebra::MakeSelect;
using algebra::OpPtr;
using algebra::Predicate;
using algebra::Term;

void ExpectTablesEqual(const MatTable& a, const MatTable& b,
                       const char* what) {
  ASSERT_EQ(a.schema, b.schema) << what;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].size(), b.rows[r].size()) << what << " row " << r;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      const Value& va = a.rows[r][c];
      const Value& vb = b.rows[r][c];
      EXPECT_TRUE(va.is_null() == vb.is_null() && (va.is_null() || va == vb))
          << what << " row " << r << " col " << c << ": " << va.ToString()
          << " vs " << vb.ToString();
    }
  }
}

/// Evaluates `plan` under the row evaluator and the columnar executor and
/// requires identical tables.
MatTable EvalBothWays(const OpPtr& plan, const xml::DocTable& doc,
                      const char* what) {
  auto row = Evaluate(plan, doc);
  EXPECT_TRUE(row.ok()) << row.status().ToString();
  auto col = columnar::EvaluateColumnar(plan, doc);
  EXPECT_TRUE(col.ok()) << col.status().ToString();
  if (row.ok() && col.ok()) {
    ExpectTablesEqual(row.value(), col.value(), what);
    return row.value();
  }
  return MatTable{};
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

TEST(ColumnBatch, MatTableRoundTrip) {
  xml::DocTable doc = testutil::LoadDoc("bib.xml", testutil::TinyBibXml());
  MatTable table = BuildDocRelation(doc);
  columnar::ColumnBatch batch = columnar::BatchFromMatTable(table);
  EXPECT_EQ(batch.num_rows, table.rows.size());
  ExpectTablesEqual(table, columnar::BatchToMatTable(batch), "round trip");
  // And the direct typed construction agrees with the row-major one.
  BudgetClock clock;
  auto direct = columnar::DocRelationBatch(doc, &clock);
  ASSERT_TRUE(direct.ok());
  ExpectTablesEqual(table, columnar::BatchToMatTable(direct.value()),
                    "doc relation");
}

OpPtr IntsLiteral(const std::string& col, std::vector<int64_t> values) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(values.size());
  for (int64_t v : values) rows.push_back({Value::Int(v)});
  return MakeLiteral({col}, std::move(rows));
}

TEST(ColumnarExec, OperatorsAgreeWithRowExecutorOnHandBuiltPlans) {
  xml::DocTable doc = testutil::LoadDoc("site.xml", testutil::TinySiteXml());
  OpPtr lit = IntsLiteral("x", {5, 3, 9, 3, 7, 1});
  // σ
  OpPtr sel = MakeSelect(
      lit, Predicate::Single(Term::Col("x"), CmpOp::kGt, Term::Const(Value::Int(2))));
  MatTable sel_rows = EvalBothWays(sel, doc, "select");
  EXPECT_EQ(sel_rows.rows.size(), 5u);  // 5, 3, 9, 3, 7
  // ⋈ (equi + residual)
  OpPtr right = IntsLiteral("y", {3, 9, 9, 2});
  Predicate join_pred =
      Predicate::Single(Term::Col("x"), CmpOp::kEq, Term::Col("y"));
  MatTable join_rows =
      EvalBothWays(MakeJoin(lit, right, join_pred), doc, "equi join");
  EXPECT_EQ(join_rows.rows.size(), 4u);  // 3⋈3 twice, 9⋈9 twice
  // × with range predicate forced into the residual nested loop
  Predicate range_pred =
      Predicate::Single(Term::Col("x"), CmpOp::kLt, Term::Col("y"));
  EvalBothWays(MakeJoin(lit, right, range_pred), doc, "range join");
  EvalBothWays(MakeCross(lit, right), doc, "cross");
  // δ
  EvalBothWays(MakeDistinct(MakeProject(lit, {{"d", "x"}})), doc, "distinct");
  // ϱ
  EvalBothWays(MakeRank(lit, "rnk", {"x"}), doc, "rank");
  // Compiled query end to end (serialize root) on a real document.
  auto plan = testutil::CompileToPlan("//item[price > 10.0]/name", "site.xml");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EvalBothWays(plan.value(), doc, "compiled plan");
  auto row_seq = EvaluateToSequence(plan.value(), doc);
  auto col_seq = testutil::Drain(
      columnar::OpenSequenceStreamColumnar(plan.value(), doc, {}));
  ASSERT_TRUE(row_seq.ok());
  ASSERT_TRUE(col_seq.ok());
  EXPECT_EQ(row_seq.value(), col_seq.value());
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
  MatTable rows = EvalBothWays(join, doc, "null-key join");
  ASSERT_EQ(rows.rows.size(), 1u);  // only k=2 ⋈ q=2
  EXPECT_EQ(rows.rows[0][1].AsString(), "l2");
  EXPECT_EQ(rows.rows[0][3].AsString(), "r1");
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
  for (bool batched : {false, true}) {
    ExecStats stats;
    ExecOptions options;
    options.stats = &stats;
    auto result = batched ? columnar::EvaluateColumnar(cross, doc, options)
                           : Evaluate(cross, doc, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().rows.size(), 25u);
    // shared (5) + two projections (5 + 5) + cross (25); the old
    // evaluator's per-hit deep copy would double the shared table.
    EXPECT_EQ(stats.tuples_materialized, 40)
        << (batched ? "columnar" : "row");
    EXPECT_EQ(stats.rows_out, 25);
  }
}

}  // namespace
}  // namespace xqjg::engine

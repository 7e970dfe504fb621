// Algebra construction, schema checking, DAG utilities, printer.
#include <gtest/gtest.h>

#include "src/algebra/dag.h"
#include "src/algebra/operators.h"
#include "src/algebra/printer.h"

namespace xqjg::algebra {
namespace {

OpPtr Lit(std::vector<std::string> cols) {
  std::vector<Value> row;
  for (size_t i = 0; i < cols.size(); ++i) {
    row.push_back(Value::Int(static_cast<int64_t>(i)));
  }
  return MakeLiteral(std::move(cols), {row});
}

TEST(Operators, ProjectRenamesAndValidates) {
  OpPtr base = Lit({"a", "b"});
  OpPtr proj = MakeProject(base, {{"x", "a"}, {"y", "b"}, {"z", "a"}});
  EXPECT_EQ(proj->schema, (std::vector<std::string>{"x", "y", "z"}));
  // missing source column is rejected by RecomputeSchema
  Op bad = *proj;
  bad.proj = {{"x", "nope"}};
  EXPECT_FALSE(RecomputeSchema(&bad));
  // duplicate output names are rejected
  bad.proj = {{"x", "a"}, {"x", "b"}};
  EXPECT_FALSE(RecomputeSchema(&bad));
}

TEST(Operators, JoinRequiresDisjointSchemas) {
  OpPtr l = Lit({"a", "b"});
  OpPtr r = Lit({"c", "d"});
  OpPtr join = MakeJoin(l, r, Predicate::Single(Term::Col("a"), CmpOp::kEq,
                                                Term::Col("c")));
  EXPECT_EQ(join->schema.size(), 4u);
  Op bad = *join;
  bad.children = {Lit({"a"}), Lit({"a"})};
  EXPECT_FALSE(RecomputeSchema(&bad));
}

TEST(Operators, AttachRankRowIdExtendSchema) {
  OpPtr base = Lit({"a"});
  OpPtr attach = MakeAttach(base, "c", Value::Int(7));
  OpPtr rowid = MakeRowId(attach, "r");
  OpPtr rank = MakeRank(rowid, "k", {"a", "r"});
  EXPECT_EQ(rank->schema, (std::vector<std::string>{"a", "c", "r", "k"}));
  // attach of an existing column is rejected
  Op bad = *attach;
  bad.col = "a";
  EXPECT_FALSE(RecomputeSchema(&bad));
}

TEST(Operators, SerializeNeedsNamedColumns) {
  OpPtr base = Lit({"p", "i"});
  OpPtr root = MakeSerialize(base, "p", "i");
  EXPECT_EQ(root->order[0], "p");
  EXPECT_EQ(root->col, "i");
  Op bad = *root;
  bad.order = {"missing"};
  EXPECT_FALSE(RecomputeSchema(&bad));
}

TEST(Predicate, TermToStringAndCols) {
  Predicate p;
  p.And(Term::Col("cpre"), CmpOp::kLt, Term::Col("pre"));
  p.And(Term::Col("pre"), CmpOp::kLe, Term::ColSum("cpre", "csize"));
  p.And(Term::ColPlus("clevel", 1), CmpOp::kEq, Term::Col("level"));
  EXPECT_EQ(p.ToString(),
            "cpre < pre AND pre <= cpre + csize AND clevel + 1 = level");
  EXPECT_EQ(p.Cols(),
            (std::set<std::string>{"cpre", "pre", "csize", "clevel",
                                   "level"}));
}

TEST(Predicate, FlipCmpOp) {
  EXPECT_EQ(FlipCmpOp(CmpOp::kLt), CmpOp::kGt);
  EXPECT_EQ(FlipCmpOp(CmpOp::kLe), CmpOp::kGe);
  EXPECT_EQ(FlipCmpOp(CmpOp::kEq), CmpOp::kEq);
  EXPECT_EQ(FlipCmpOp(CmpOp::kNe), CmpOp::kNe);
}

TEST(Dag, OrdersAndCounts) {
  OpPtr doc = MakeDocTable();
  OpPtr s1 = MakeSelect(doc, Predicate::Single(Term::Col("kind"), CmpOp::kEq,
                                               Term::Const(Value::Int(1))));
  OpPtr p1 = MakeProject(s1, {{"x", "pre"}});
  OpPtr p2 = MakeProject(doc, {{"y", "pre"}});  // doc shared
  OpPtr join = MakeJoin(p1, p2, Predicate::Single(Term::Col("x"), CmpOp::kEq,
                                                  Term::Col("y")));
  EXPECT_EQ(CountOps(join), 5u);  // doc counted once
  EXPECT_EQ(CountOps(join, OpKind::kProject), 2u);
  auto topo = TopoOrder(join);
  EXPECT_EQ(topo.front(), join.get());
  // children after parents
  auto pos = [&](const Op* op) {
    return std::find(topo.begin(), topo.end(), op) - topo.begin();
  };
  EXPECT_LT(pos(join.get()), pos(p1.get()));
  EXPECT_LT(pos(p1.get()), pos(s1.get()));
  EXPECT_LT(pos(s1.get()), pos(doc.get()));
}

TEST(Dag, Reachability) {
  OpPtr doc = MakeDocTable();
  OpPtr sel = MakeSelect(doc, Predicate::True());
  OpPtr proj = MakeProject(sel, {{"p", "pre"}});
  EXPECT_TRUE(Reaches(proj.get(), doc.get()));
  EXPECT_FALSE(Reaches(doc.get(), proj.get()));
  EXPECT_TRUE(Reaches(sel.get(), sel.get()));
}

TEST(Dag, ClonePreservesSharing) {
  OpPtr doc = MakeDocTable();
  OpPtr p1 = MakeProject(doc, {{"a", "pre"}});
  OpPtr p2 = MakeProject(doc, {{"b", "pre"}});
  OpPtr join = MakeJoin(p1, p2, Predicate::Single(Term::Col("a"), CmpOp::kEq,
                                                  Term::Col("b")));
  OpPtr clone = ClonePlan(join);
  EXPECT_NE(clone.get(), join.get());
  EXPECT_EQ(CountOps(clone), CountOps(join));
  // the shared doc leaf stays shared in the clone
  EXPECT_EQ(clone->children[0]->children[0].get(),
            clone->children[1]->children[0].get());
  // and is distinct from the original's leaf
  EXPECT_NE(clone->children[0]->children[0].get(), doc.get());
}

TEST(Printer, MarksSharedNodes) {
  OpPtr doc = MakeDocTable();
  OpPtr join = MakeJoin(MakeProject(doc, {{"a", "pre"}}),
                        MakeProject(doc, {{"b", "pre"}}),
                        Predicate::Single(Term::Col("a"), CmpOp::kEq,
                                          Term::Col("b")));
  std::string printed = PrintPlan(join);
  EXPECT_NE(printed.find("^ref"), std::string::npos);
  std::string dot = PlanToDot(join);
  EXPECT_EQ(dot.rfind("digraph", 0), 0u);
  EXPECT_NE(OperatorCensus(join).find("doc:1"), std::string::npos);
}

}  // namespace
}  // namespace xqjg::algebra

// Property inference tests (paper Tables II–V) on hand-built plans.
#include <gtest/gtest.h>

#include "src/algebra/operators.h"
#include "src/opt/properties.h"

namespace xqjg::opt {
namespace {

using algebra::CmpOp;
using algebra::MakeAttach;
using algebra::MakeDistinct;
using algebra::MakeDocTable;
using algebra::MakeJoin;
using algebra::MakeLiteral;
using algebra::MakeProject;
using algebra::MakeRank;
using algebra::MakeRowId;
using algebra::MakeSelect;
using algebra::MakeSerialize;
using algebra::OpPtr;
using algebra::Predicate;
using algebra::Term;

TEST(Properties, IcolsSeededAtSerializeAndNarrowedByProject) {
  OpPtr doc = MakeDocTable();
  OpPtr proj = MakeProject(doc, {{"pos", "pre"}, {"item", "pre"},
                                 {"extra", "size"}});
  OpPtr root = MakeSerialize(proj, "pos", "item");
  PropertyMap props = PropertyMap::Infer(root);
  EXPECT_EQ(props.Get(proj.get()).IcolNames(),
            (std::set<std::string>{"pos", "item"}));
  // The doc leaf only needs the projection's used source.
  EXPECT_EQ(props.Get(doc.get()).IcolNames(),
            (std::set<std::string>{"pre"}));
}

TEST(Properties, IcolsIncludePredicateColumns) {
  OpPtr doc = MakeDocTable();
  OpPtr sel = MakeSelect(doc, Predicate::Single(Term::Col("kind"), CmpOp::kEq,
                                                Term::Const(Value::Int(1))));
  OpPtr proj = MakeProject(sel, {{"pos", "pre"}, {"item", "pre"}});
  OpPtr root = MakeSerialize(proj, "pos", "item");
  PropertyMap props = PropertyMap::Infer(root);
  EXPECT_TRUE(props.Get(doc.get()).Needs("kind"));
  EXPECT_TRUE(props.Get(doc.get()).Needs("pre"));
}

TEST(Properties, ConstsFlowFromLiteralsAndAttach) {
  OpPtr lit = MakeLiteral({"iter"}, {{Value::Int(1)}});
  OpPtr attach = MakeAttach(lit, "pos", Value::Int(9));
  OpPtr proj = MakeProject(attach, {{"i2", "iter"}, {"p2", "pos"}});
  OpPtr root = MakeSerialize(proj, "p2", "i2");
  PropertyMap props = PropertyMap::Infer(root);
  const NodeProps& p = props.Get(proj.get());
  ASSERT_TRUE(p.IsConst("i2"));
  EXPECT_EQ(p.ConstOf("i2")->AsInt(), 1);
  ASSERT_TRUE(p.IsConst("p2"));
  EXPECT_EQ(p.ConstOf("p2")->AsInt(), 9);
}

TEST(Properties, KeysDocRowIdDistinctRank) {
  OpPtr doc = MakeDocTable();
  PropertyMap props0 = PropertyMap::Infer(
      MakeSerialize(MakeProject(doc, {{"pos", "pre"}, {"item", "pre"}}),
                    "pos", "item"));
  EXPECT_TRUE(props0.Get(doc.get()).HasSingletonKey("pre"));

  OpPtr proj = MakeProject(doc, {{"iter", "pre"}, {"item", "pre"}});
  OpPtr dedup = MakeDistinct(proj);
  OpPtr rid = MakeRowId(dedup, "inner");
  OpPtr rank = MakeRank(rid, "pos", {"item"});
  OpPtr root = MakeSerialize(rank, "pos", "item");
  PropertyMap props = PropertyMap::Infer(root);
  EXPECT_TRUE(props.Get(rid.get()).HasSingletonKey("inner"));
  // distinct adds the full schema as a key
  EXPECT_TRUE(props.Get(dedup.get())
                  .HasKeyWithin({"iter", "item"}));
  // rank: pos + (key minus order cols) is a key
  EXPECT_TRUE(props.Get(rank.get()).HasKeyWithin({"pos", "iter", "inner"}));
}

TEST(Properties, EquiJoinOnKeyPreservesKeys) {
  OpPtr doc = MakeDocTable();
  OpPtr left = MakeProject(doc, {{"a", "pre"}, {"av", "value"}});
  OpPtr right = MakeProject(doc, {{"b", "pre"}, {"bv", "name"}});
  OpPtr join = MakeJoin(left, right, Predicate::Single(Term::Col("a"),
                                                       CmpOp::kEq,
                                                       Term::Col("b")));
  OpPtr proj = MakeProject(join, {{"pos", "a"}, {"item", "b"}});
  OpPtr root = MakeSerialize(proj, "pos", "item");
  PropertyMap props = PropertyMap::Infer(root);
  const NodeProps& p = props.Get(join.get());
  // Both sides keyed on the join column: each side's keys survive.
  EXPECT_TRUE(p.HasSingletonKey("a"));
  EXPECT_TRUE(p.HasSingletonKey("b"));
}

TEST(Properties, SetPropertyFalseWithoutDistinctAboveTrueBelowIt) {
  OpPtr doc = MakeDocTable();
  OpPtr inner_proj = MakeProject(doc, {{"item", "pre"}});
  OpPtr dedup = MakeDistinct(inner_proj);
  OpPtr attach = MakeAttach(dedup, "pos", Value::Int(1));
  OpPtr root = MakeSerialize(attach, "pos", "item");
  PropertyMap props = PropertyMap::Infer(root);
  EXPECT_FALSE(props.Get(attach.get()).dedup_upstream);
  EXPECT_FALSE(props.Get(dedup.get()).dedup_upstream);
  EXPECT_TRUE(props.Get(inner_proj.get()).dedup_upstream);
  EXPECT_TRUE(props.Get(doc.get()).dedup_upstream);
}

TEST(Properties, ConstStrippedKeys) {
  // iter is constant 1 -> {iter, item} reduces to {item}.
  OpPtr doc = MakeDocTable();
  OpPtr proj = MakeProject(doc, {{"item", "pre"}});
  OpPtr attach = MakeAttach(proj, "iter", Value::Int(1));
  OpPtr dedup = MakeDistinct(attach);
  OpPtr rank = MakeRank(dedup, "pos", {"item"});
  OpPtr root = MakeSerialize(rank, "pos", "item");
  PropertyMap props = PropertyMap::Infer(root);
  EXPECT_TRUE(props.Get(dedup.get()).HasSingletonKey("item"));
}

TEST(Properties, EqClassesTrackCopiesAndJoinEqualities) {
  OpPtr doc = MakeDocTable();
  OpPtr proj = MakeProject(doc, {{"a", "pre"}, {"b", "pre"}, {"c", "size"}});
  OpPtr root = MakeSerialize(
      MakeProject(proj, {{"pos", "a"}, {"item", "b"}}), "pos", "item");
  PropertyMap props = PropertyMap::Infer(root);
  const NodeProps& p = props.Get(proj.get());
  ASSERT_GE(p.EqClassOf("a"), 0);
  EXPECT_EQ(p.EqClassOf("a"), p.EqClassOf("b"));
  EXPECT_NE(p.EqClassOf("a"), p.EqClassOf("c"));
}

TEST(Properties, EqClassesDoNotAliasAcrossReferences) {
  // Two independent projections of the shared doc leaf must not be
  // considered value-equal.
  OpPtr doc = MakeDocTable();
  OpPtr p1 = MakeProject(doc, {{"x", "pre"}});
  OpPtr p2 = MakeProject(doc, {{"y", "pre"}});
  OpPtr join = MakeJoin(p1, p2, Predicate::Single(Term::Col("x"), CmpOp::kLt,
                                                  Term::Col("y")));
  OpPtr root = MakeSerialize(MakeProject(join, {{"pos", "x"}, {"item", "y"}}),
                             "pos", "item");
  PropertyMap props = PropertyMap::Infer(root);
  const NodeProps& p = props.Get(join.get());
  ASSERT_GE(p.EqClassOf("x"), 0);
  EXPECT_NE(p.EqClassOf("x"), p.EqClassOf("y"));
}

}  // namespace
}  // namespace xqjg::opt

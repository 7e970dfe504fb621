// RewriteState: the rewriter's incrementally kept view of a plan. Edits go
// through Replace / SetChild / Touched; after Settle() the state must match
// a from-scratch derivation. Nodes an edit detaches must be released
// without reading freed memory: the shared_ptr DAG frees a detached
// subplan as soon as its last link goes (regression: heap-use-after-free
// under ASan when the replaced node owned the only reference to a deep
// chain).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/algebra/dag.h"
#include "src/algebra/operators.h"
#include "src/opt/rewrite_state.h"

namespace xqjg::opt {
namespace {

using algebra::CountOps;
using algebra::MakeAttach;
using algebra::MakeCross;
using algebra::MakeDistinct;
using algebra::MakeDocTable;
using algebra::MakeLiteral;
using algebra::MakeProject;
using algebra::MakeRank;
using algebra::MakeRowId;
using algebra::MakeSerialize;
using algebra::Op;
using algebra::OpPtr;

OpPtr Lit(const std::string& col) {
  return MakeLiteral({col}, {{Value::Int(1)}});
}

TEST(RewriteState, ReplaceReleasesADetachedChain) {
  // root -> distinct -> rowid -> rank -> literal: the distinct's child is
  // replaced, orphaning a three-deep chain the root owned alone.
  OpPtr chain = MakeRank(Lit("n"), "r", {"n"});
  chain = MakeRowId(chain, "id");
  Op* victim = chain.get();
  OpPtr root = MakeDistinct(chain);
  chain.reset();  // root now owns the only reference to the chain

  RewriteState state(root);
  OpPtr replacement = Lit("n");
  state.Replace(victim, replacement);
  state.Settle();
  ASSERT_EQ(root->children.size(), 1u);
  EXPECT_EQ(root->children[0].get(), replacement.get());
  EXPECT_EQ(CountOps(root), 2u);
  EXPECT_EQ(root->schema, (std::vector<std::string>{"n"}));
  EXPECT_EQ(state.NumParents(replacement.get()), 1u);
  EXPECT_TRUE(state.CheckAgainstScratch("test").ok());
}

TEST(RewriteState, ReplaceRewritesEverySharedLink) {
  // Diamond: both cross inputs project the same shared node; replacing it
  // must rewrite both links (and survive dropping the shared node's last
  // external reference).
  OpPtr shared = MakeRowId(Lit("n"), "id");
  Op* victim = shared.get();
  OpPtr root = MakeCross(MakeProject(shared, {{"a", "n"}}),
                         MakeProject(shared, {{"b", "n"}}));
  shared.reset();

  RewriteState state(root);
  OpPtr replacement = MakeRowId(Lit("n"), "id");
  state.Replace(victim, replacement);
  state.Settle();
  EXPECT_EQ(root->children[0]->children[0].get(), replacement.get());
  EXPECT_EQ(root->children[1]->children[0].get(), replacement.get());
  EXPECT_EQ(state.NumParents(replacement.get()), 2u);
  EXPECT_TRUE(state.CheckAgainstScratch("test").ok());
}

TEST(RewriteState, TouchedUpdatesAncestorsAndDescendants) {
  OpPtr doc = MakeDocTable();
  OpPtr proj =
      MakeProject(doc, {{"a", "pre"}, {"b", "size"}, {"c", "level"}});
  OpPtr rank = MakeRank(proj, "r", {"a", "b"});
  OpPtr root = MakeSerialize(rank, "r", "a");
  RewriteState state(root);
  EXPECT_TRUE(state.Props(doc.get()).Needs("size"));

  // Rule 4 narrows a projection in place: the rank and the root lose "c".
  proj->proj.pop_back();
  state.Touched(proj.get());
  // Rule 13 drops an ordering criterion in place: "b", and with it the
  // doc's "size", is no longer needed.
  rank->order = {"a"};
  state.Touched(rank.get());
  state.Settle();
  EXPECT_EQ(rank->schema, (std::vector<std::string>{"a", "b", "r"}));
  EXPECT_EQ(root->schema, rank->schema);
  EXPECT_TRUE(state.Props(doc.get()).Needs("pre"));
  EXPECT_FALSE(state.Props(doc.get()).Needs("size"));
  EXPECT_TRUE(state.CheckAgainstScratch("test").ok());
}

TEST(RewriteState, CheckAgainstScratchCatchesAnUnreportedEdit) {
  OpPtr doc = MakeDocTable();
  OpPtr attach =
      MakeAttach(MakeProject(doc, {{"item", "pre"}}), "pos", Value::Int(1));
  OpPtr root = MakeSerialize(attach, "pos", "item");
  RewriteState state(root);
  ASSERT_TRUE(state.CheckAgainstScratch("test").ok());

  attach->val = Value::Int(2);  // edited without state.Touched
  state.Settle();
  const Status stale = state.CheckAgainstScratch("rewrite:test");
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.ToString().find("[stage=rewrite:test]"), std::string::npos);
  EXPECT_NE(stale.ToString().find("[invariant=incremental]"),
            std::string::npos);
  EXPECT_NE(stale.ToString().find("const"), std::string::npos);

  state.Touched(attach.get());
  state.Settle();
  EXPECT_TRUE(state.CheckAgainstScratch("test").ok());
}

TEST(RewriteState, WalkSkipsUnchangedOperatorsUntilARankLosesAParent) {
  // A rank shared by two projections: rules 14–16 pull a rank up only
  // past its single parent, so the projection left over when the other
  // one goes must be tried again.
  OpPtr doc = MakeDocTable();
  OpPtr rank = MakeRank(MakeProject(doc, {{"a", "pre"}}), "r", {"a"});
  OpPtr left = MakeProject(rank, {{"a1", "a"}, {"r1", "r"}});
  OpPtr right = MakeProject(rank, {{"a2", "a"}, {"r2", "r"}});
  OpPtr root = MakeCross(left, right);
  RewriteState state(root);
  std::vector<const Op*> tried;
  auto match_nothing = [&](Op* op) {
    tried.push_back(op);
    return false;
  };
  bool stale = false;
  EXPECT_FALSE(state.Walk(0, false, &stale, match_nothing));
  EXPECT_EQ(tried.size(), CountOps(root));
  tried.clear();
  EXPECT_FALSE(state.Walk(0, false, &stale, match_nothing));
  EXPECT_TRUE(tried.empty());

  state.Replace(right.get(),
                MakeProject(doc, {{"a2", "pre"}, {"r2", "size"}}));
  state.Settle();
  EXPECT_EQ(state.NumParents(rank.get()), 1u);
  EXPECT_FALSE(state.Walk(0, false, &stale, match_nothing));
  EXPECT_NE(std::find(tried.begin(), tried.end(), left.get()), tried.end());
  EXPECT_TRUE(state.CheckAgainstScratch("test").ok());
}

}  // namespace
}  // namespace xqjg::opt

// DAG utilities: traversal orders, parent maps and cloning. Node
// replacement lives in opt::RewriteState (tests/opt/rewrite_state_test.cpp).
#include <gtest/gtest.h>

#include "src/algebra/dag.h"
#include "src/algebra/operators.h"

namespace xqjg::algebra {
namespace {

OpPtr Lit(const std::string& col) {
  return MakeLiteral({col}, {{Value::Int(1)}});
}

TEST(Dag, TopoOrderVisitsParentsBeforeChildren) {
  OpPtr leaf = Lit("n");
  OpPtr mid = MakeDistinct(leaf);
  OpPtr root = MakeRowId(mid, "id");
  std::vector<Op*> order = TopoOrder(root);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], root.get());
  EXPECT_EQ(order[2], leaf.get());
}

TEST(Dag, ParentMapCountsEverySharedLink) {
  OpPtr shared = Lit("n");
  OpPtr root = MakeCross(MakeProject(shared, {{"a", "n"}}),
                         MakeProject(shared, {{"b", "n"}}));
  ParentMap map = BuildParentMap(root);
  EXPECT_EQ(map.NumParents(shared.get()), 2u);
  EXPECT_EQ(map.NumParents(root.get()), 0u);
}

TEST(Dag, ClonePreservesSharing) {
  OpPtr shared = Lit("n");
  OpPtr root = MakeCross(MakeProject(shared, {{"a", "n"}}),
                         MakeProject(shared, {{"b", "n"}}));
  OpPtr copy = ClonePlan(root);
  EXPECT_NE(copy.get(), root.get());
  EXPECT_EQ(CountOps(copy), CountOps(root));
  // The shared literal must stay shared in the clone.
  EXPECT_EQ(copy->children[0]->children[0].get(),
            copy->children[1]->children[0].get());
}

}  // namespace
}  // namespace xqjg::algebra

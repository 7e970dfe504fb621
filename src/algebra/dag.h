// DAG utilities for algebra plans: traversal orders, parent maps,
// reachability (the paper's ⇛ relation), and cloning. The rewriter
// replaces nodes through its own parent links (src/opt/rewrite_state.h).
#ifndef XQJG_ALGEBRA_DAG_H_
#define XQJG_ALGEBRA_DAG_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/algebra/operators.h"

namespace xqjg::algebra {

/// All distinct nodes reachable from `root`, parents before children
/// (reverse-topological from the leaves' perspective).
std::vector<Op*> TopoOrder(const OpPtr& root);

/// Leaves-first order (children before parents).
std::vector<Op*> BottomUpOrder(const OpPtr& root);

/// parent -> set of (parent node, child slot) links for every node.
struct ParentMap {
  std::unordered_map<const Op*, std::vector<std::pair<Op*, size_t>>> parents;

  /// Number of distinct parent links of `op` (a node may occupy both child
  /// slots of one parent).
  size_t NumParents(const Op* op) const {
    auto it = parents.find(op);
    return it == parents.end() ? 0 : it->second.size();
  }
};

ParentMap BuildParentMap(const OpPtr& root);

/// True iff `target` is reachable from `from` (from ⇛ target), following
/// child edges. A node reaches itself.
bool Reaches(const Op* from, const Op* target);

/// Deep copy of the DAG preserving sharing (shared nodes stay shared in
/// the copy). The rewriter mutates plans in place; clone first when the
/// original must be kept (e.g. stacked-vs-isolated comparisons).
OpPtr ClonePlan(const OpPtr& root);

/// Number of operators in the DAG (distinct nodes).
size_t CountOps(const OpPtr& root);

/// Number of operators of the given kind.
size_t CountOps(const OpPtr& root, OpKind kind);

}  // namespace xqjg::algebra

#endif  // XQJG_ALGEBRA_DAG_H_

// The rewriter's view of a plan under rewriting: schemas, the parent map
// and the NodeProps of every operator, kept current incrementally
// (incremental attribute evaluation, Reps, Teitelbaum and Demers, TOPLAS
// 1983).
//
// Rules edit the plan only through Replace / SetChild / Touched, which
// mark what changed. Settle() then
//   * recomputes schemas and the bottom-up properties (cols, const, key,
//     eq_class) of the marked operators and, while values change, of
//     their ancestors;
//   * recomputes the top-down properties (icols, set) of operators whose
//     parents changed and, while values change, of their descendants.
// Each propagation stops at an operator whose value is unchanged.
//
// It also remembers, per rule phase, which operators matched no rule, and
// forgets that when something the rules read changes: the operator, its
// children and grandchildren (fields, schema, properties, parent count),
// or, for a join, any edge below it (rule 11 asks whether one input
// reaches the other). Walk() skips the remembered operators, so after a
// firing the rules run again only near the rewrite, while the first match
// in topological order, and so the firing sequence, is the one a full
// restart would find.
#ifndef XQJG_OPT_REWRITE_STATE_H_
#define XQJG_OPT_REWRITE_STATE_H_

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/algebra/operators.h"
#include "src/common/status.h"
#include "src/opt/properties.h"

namespace xqjg::opt {

class RewriteState {
 public:
  /// Rule phases whose no-match marks are tracked separately.
  static constexpr size_t kNumPhases = 2;

  explicit RewriteState(algebra::OpPtr root);

  const algebra::OpPtr& root() const { return root_; }
  const NodeProps& Props(const algebra::Op* op) const {
    return At(op).props;
  }
  /// Number of parent links of `op` (a parent holding it in two slots
  /// counts twice), as algebra::ParentMap::NumParents.
  size_t NumParents(const algebra::Op* op) const {
    return At(op).parents.size();
  }

  // ---- edits (rules call these instead of assigning child slots) ----
  /// Points every parent link of `old_op` (and the root, if it is the
  /// root) at `new_op`.
  void Replace(algebra::Op* old_op, algebra::OpPtr new_op);
  /// Points child `slot` of `op` at `child`.
  void SetChild(algebra::Op* op, size_t slot, algebra::OpPtr child);
  /// `op`'s own fields (projection list, rank order) were edited.
  void Touched(algebra::Op* op);

  /// Brings schemas and properties up to date after a rule's edits.
  void Settle();

  /// Calls `try_rules(op)` on each operator in topological order (parents
  /// first) that is not known to match no rule of `phase`, until a call
  /// returns true; returns whether one did. An operator on which it
  /// returns false is remembered as matching nothing. Call Settle() after
  /// a firing before walking again.
  ///
  /// With `recheck`, the remembered operators are tried too, as a restart
  /// from the root would, and `*stale` reports whether the firing hit one
  /// of them: a change some rule reads was not invalidated.
  template <typename Fn>
  bool Walk(size_t phase, bool recheck, bool* stale, Fn&& try_rules) {
    for (Node* n : order_) {
      const bool marked = n->no_match[phase];
      if (marked && !recheck) continue;
      if (try_rules(n->op.get())) {
        *stale = marked;
        return true;
      }
      n->no_match[phase] = true;
    }
    return false;
  }

  /// The operators from which `op` is reachable along child edges, `op`
  /// excluded, each after its children among them.
  std::vector<algebra::Op*> AncestorsBottomUp(const algebra::Op* op) const;

  /// True iff `target` is reachable from `from` along child edges (a
  /// node reaches itself), as algebra::Reaches.
  bool Reaches(const algebra::Op* from, const algebra::Op* target);

  /// Compares the maintained state with a from-scratch derivation
  /// (algebra::BuildParentMap, PropertyMap::Infer): the node set, the
  /// parent map and every NodeProps (equality classes as partitions). A
  /// mismatch is an Internal status in the plan validator's format, with
  /// `stage` as its stage and invariant "incremental".
  Status CheckAgainstScratch(const std::string& stage) const;

 private:
  struct Node {
    algebra::OpPtr op;  ///< keeps the operator alive while it is planned
    std::vector<Node*> kids;                     ///< op->children's nodes
    std::vector<std::pair<Node*, size_t>> parents;  ///< (parent, slot)
    NodeProps props;
    uint32_t mark = 0;          ///< DFS epoch
    /// Schema to recompute (operators built by algebra::Make* start with
    /// a consistent one).
    bool schema_dirty = false;
    bool up_dirty = true;       ///< bottom-up props to recompute
    bool down_dirty = true;     ///< top-down props to recompute
    bool edge_below = false;    ///< an edge at or below it changed
    bool no_match[kNumPhases] = {false, false};

    void ClearNoMatch() { std::fill(no_match, no_match + kNumPhases, false); }
  };

  const Node& At(const algebra::Op* op) const;
  Node& At(const algebra::Op* op);
  /// The node of `op`, registering it and any unregistered descendants.
  Node* Adopt(const algebra::OpPtr& op);
  /// Drops `n` unless it is the root or still has a parent, and then,
  /// the same way, its children.
  void Release(Node* n);
  void Link(Node* parent, size_t slot, Node* child);
  void Unlink(Node* parent, size_t slot, Node* child);
  /// Points child `slot` of `parent` at `child`.
  void Relink(Node* parent, size_t slot, Node* child);
  /// Something `n` shows its own, its parents' and its grandparents'
  /// rules changed: forget their no-match marks.
  static void Changed(Node* n);
  /// `n` gained or lost a parent link.
  static void ParentCountChanged(Node* n);
  /// Appends the not yet visited part of `n`'s subplan to order_,
  /// children first.
  void PostOrder(Node* n);

  algebra::OpPtr root_;
  Node* root_node_ = nullptr;
  std::unique_ptr<ColumnIds> ids_;
  std::unordered_map<const algebra::Op*, Node> nodes_;
  /// Topological order (parents first) of the settled plan.
  std::vector<Node*> order_;
  std::vector<Node*> stack_;  ///< Reaches' DFS stack
  uint32_t epoch_ = 0;
};

}  // namespace xqjg::opt

#endif  // XQJG_OPT_REWRITE_STATE_H_

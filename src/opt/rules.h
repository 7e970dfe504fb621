// The join graph isolation rewrite rules (paper Fig. 5).
//
// Rules are numbered after the paper. Two adaptations are needed because
// our algebra is *named* (every operator output column has a name and join
// schemas must be disjoint) where the paper's presentation is loose about
// column collisions:
//
//   * Rule (11) (join push-down) maps the join predicate column through
//     projection renames as the join descends, and refuses pushes that
//     would create overlapping schemas.
//   * Rule (9) (key self-join removal) appears in two guises:
//       (9a) inside the rule-(11) step: if the push would create
//            q ⋈_{c=c} q over the very same node with {c} a key, the join
//            is dropped instead of created;
//       (9b) merge rule: π_A(S) ⋈_{x=y} π_B(S) over the same S where x and
//            y both rename the same key column c of S collapses to
//            π_{A∪B}(S) — each row pairs with itself, so the join is a
//            rename union. This is the Fig. 6(d) endgame in named form.
//
// Beyond Fig. 5 we add three pure housekeeping rules that the paper's
// unnamed algebra gets for free: π∘π composition, identity-π removal, and
// empty-rank-to-attach.
#ifndef XQJG_OPT_RULES_H_
#define XQJG_OPT_RULES_H_

#include <map>
#include <string>
#include <vector>

#include "src/algebra/dag.h"
#include "src/algebra/operators.h"
#include "src/common/status.h"
#include "src/opt/rewrite_state.h"

namespace xqjg::opt {

/// Applies rewrite rules to a plan until fixpoint, in the paper's two
/// goal-directed phases (ϱ first, then δ + ⋈).
class Rewriter {
 public:
  /// Reads XQJG_VALIDATE_REWRITES from the environment at construction
  /// (not via a function-local static, so tests may toggle it): when set,
  /// after EVERY individual rewrite application the structural plan
  /// validator (src/algebra/validate.h) runs and the incrementally kept
  /// schemas, parent links and properties are compared with a
  /// from-scratch derivation (RewriteState::CheckAgainstScratch); and
  /// every walk also tries the operators remembered as matching no rule,
  /// so a firing the skipping walk would have missed is caught. The
  /// first failure stops the phase with a diagnostic naming the exact
  /// rule ("rewrite:r11-push-join").
  explicit Rewriter(algebra::OpPtr root);

  /// Runs both phases to fixpoint. Errors only on internal invariant
  /// violations (e.g. rewrite budget exhausted, which would indicate a
  /// non-terminating rule interaction).
  Status Run();

  /// Phase ϱ: establish (at most) one rank operator in the plan tail.
  Status RunRankPhase();
  /// Phase δ+⋈: single tail duplicate elimination, join push-down/removal.
  Status RunJoinPhase();

  const algebra::OpPtr& root() const { return state_.root(); }

  /// Rule name -> number of applications (diagnostics / the fig04_07
  /// bench).
  const std::map<std::string, int>& rule_counts() const { return counts_; }

 private:
  enum class Phase { kRank, kJoin };
  Status RunPhase(Phase phase);
  /// Applies the first rule that fires on the first operator, in
  /// topological order, where one does; returns true if applied.
  bool StepOnce(Phase phase);

  // Individual rules; each returns true if it rewrote the plan. `node` is
  // the rule's focus operator.
  bool RuleRowIdDead(algebra::Op* node);                      // (1)
  bool RuleRankDead(algebra::Op* node);                       // (2)
  bool RuleAttachDead(algebra::Op* node);                     // (3)
  bool RuleProjectNarrow(algebra::Op* node);                  // (4)
  bool RuleCrossLiteral(algebra::Op* node);                   // (5)
  bool RuleDistinctDead(algebra::Op* node);                   // (6)
  bool RuleDistinctPruneConst(algebra::Op* node);             // (7)
  bool RuleIntroduceTailDistinct(algebra::Op* node);          // (8)
  bool RuleMergeSelfJoin(algebra::Op* node);                  // (9b)
  bool RuleConstJoinToCross(algebra::Op* node);               // (10)
  bool RulePushJoinDown(algebra::Op* node);                   // (11)+(9a)
  bool RuleRankSingleCol(algebra::Op* node);                  // (12)
  bool RuleRankDropConstOrder(algebra::Op* node);             // (13)
  bool RulePullRankUnary(algebra::Op* node);                  // (14)
  bool RulePullRankJoin(algebra::Op* node);                   // (15)
  bool RulePullRankProject(algebra::Op* node);                // (16)
  bool RuleRankSplice(algebra::Op* node);                     // (17)
  bool RuleProjectProject(algebra::Op* node);                 // (hk-ππ)
  bool RuleProjectIdentity(algebra::Op* node);                // (hk-πid)
  bool RuleRowIdFromKey(algebra::Op* node);                   // (#key)
  /// RuleRowIdFromKey over a composite key: replaces rowid `node` and
  /// every column derived from it above by the columns of `key`.
  bool ExpandRowId(algebra::Op* node, const std::vector<std::string>& key);

  algebra::OpPtr Ptr(algebra::Op* node) const;

  /// The plan with its schemas, parent links and properties, kept current
  /// after every firing. Rules edit the plan only through its Replace,
  /// SetChild and Touched.
  RewriteState state_;
  std::map<std::string, int> counts_;
  int budget_ = 50000;
  /// XQJG_VALIDATE_REWRITES: validate after every rewrite application.
  bool validate_rewrites_ = false;
  /// First per-rewrite validation failure (StepOnce stops the phase on
  /// it; RunPhase returns it).
  Status validation_status_;
};

/// Convenience: full isolation of a compiled plan (paper §III). Returns
/// the rewritten root (same serialize node object identity not
/// guaranteed).
Result<algebra::OpPtr> IsolateJoinGraph(algebra::OpPtr root);

}  // namespace xqjg::opt

#endif  // XQJG_OPT_RULES_H_

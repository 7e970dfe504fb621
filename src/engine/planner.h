// Cost-based planning and execution of isolated join graphs — the "DB2
// role" of the paper: given only vanilla B-tree indexes and statistics,
// the join-order optimizer decides XPath step order, trades axes for
// their duals, and stitches paths (paper §IV-A), because the join graph
// does not prescribe any evaluation order.
#ifndef XQJG_ENGINE_PLANNER_H_
#define XQJG_ENGINE_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/engine/database.h"
#include "src/engine/exec_options.h"
#include "src/opt/join_graph.h"

namespace xqjg::engine {

/// Physical operators (paper Table VII).
enum class PhysKind { kIxScan, kTbScan, kNlJoin, kHsJoin };

struct PhysNode {
  PhysKind kind;
  // scans
  int alias = -1;
  const Database::Index* index = nullptr;  // kIxScan
  /// Conjuncts evaluated at this node (scan: local + parameterized;
  /// join: edge predicates).
  std::vector<opt::QualComparison> preds;
  /// For kIxScan: how many leading key columns are bound by equality, and
  /// whether the next key column carries a range (diagnostics / explain).
  int eq_prefix = 0;
  bool has_range = false;
  std::unique_ptr<PhysNode> left, right;  // kNlJoin/kHsJoin (left = outer)
  double est_rows = 0;
  double est_cost = 0;
};

struct PhysicalPlan {
  std::unique_ptr<PhysNode> root;
  const opt::JoinGraph* graph = nullptr;
  double est_cost = 0;
};

struct PlannerOptions {
  /// Disable cost-based join ordering: join aliases in syntactic order
  /// with filter joins (the ablation baseline).
  bool syntactic_order = false;
  /// Budgets (wall clock, intermediate row count, tracked memory) of the
  /// batch pipeline the plan runs on (columnar/plan_exec.h), enforced
  /// like for every other relational plan.
  ExecLimits limits;
  /// Morsel workers of that pipeline (1 = serial). Results are
  /// independent of the worker count: morsel outputs merge in
  /// morsel-index order.
  int threads = 1;
  /// Execute-time values for the plan's parameter markers, indexed by
  /// binding slot (null: no parameters). Not owned; must outlive the
  /// execution. The executor substitutes these into the per-node compiled
  /// qualifiers, so one PhysicalPlan serves a whole literal family.
  const std::vector<Value>* params = nullptr;
};

/// Builds the cheapest physical join tree for `graph` over `db`. Run it
/// with columnar::OpenPlanStreamColumnar (src/engine/columnar/plan_exec.h),
/// which lowers it onto the columnar batch pipeline.
Result<PhysicalPlan> PlanJoinGraph(const opt::JoinGraph& graph,
                                   const Database& db,
                                   const PlannerOptions& options = {});

/// DB2-visual-explain-style rendering (Fig. 10 / Fig. 11).
std::string ExplainPlan(const PhysicalPlan& plan);

}  // namespace xqjg::engine

#endif  // XQJG_ENGINE_PLANNER_H_

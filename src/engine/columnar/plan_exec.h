// Execution of the cost-based physical plans of src/engine/planner.h.
//
// A join graph is already algebra, so a physical join tree runs on the
// columnar batch pipeline (columnar_exec.h) that runs every other
// relational plan. The plan is lowered to table algebra over doc-relation
// leaves: alias k becomes the column d<k>.pre, plus an attribute column
// d<k>.<col> only where a later predicate or the tail reads it. Local
// predicates become σ over the doc relation. HSJOIN, and NLJOIN over
// TBSCAN, become the pipeline's hash join (column equalities are the
// keys, the other predicates residual). IXSCAN, as a leaf or as the
// inner side of NLJOIN, becomes the pipeline's index-probe operator;
// lowering also gives it its predicates as algebra over d<k>.<col>
// names — a filter checked per index match, and the range bounds
// matched to the index key columns — so that, like the hash join's
// inputs, the outer input carries the outer columns they read. The
// tail is δ over the select list (DISTINCT only), then the serialize
// sort by (ORDER BY terms…, item).
//
// The memory budget, DNF limits, worker count, spill behaviour and
// statistics are therefore the pipeline's (see columnar_exec.h and
// engine/spill.h); results are bit-identical at every budget and worker
// count. The differential suites hold the result sequences to the native
// interpreter's (tests/testutil/differential.h).
#ifndef XQJG_ENGINE_COLUMNAR_PLAN_EXEC_H_
#define XQJG_ENGINE_COLUMNAR_PLAN_EXEC_H_

#include <memory>

#include "src/common/status.h"
#include "src/engine/columnar/columnar_exec.h"
#include "src/engine/exec_options.h"
#include "src/engine/exec_stream.h"
#include "src/engine/planner.h"

namespace xqjg::engine::columnar {

/// Lowers `plan` once; run the result with OpenSequenceStreamColumnar
/// (columnar_exec.h) as often as needed. It points into `plan` and its
/// graph, which must outlive it.
Result<std::shared_ptr<const LoweredPlan>> LowerPlan(const PhysicalPlan& plan);

/// Lowers `plan` and primes its pipeline through the serialize sort;
/// the returned stream yields the result sequence's pre ranks, and its
/// rows_total() is known on return. `plan` (and its graph), `db`,
/// `options.params`, and `stats` (if set) must outlive the stream.
Result<std::unique_ptr<SequenceStream>> OpenPlanStreamColumnar(
    const PhysicalPlan& plan, const Database& db,
    const PlannerOptions& options, ExecStats* stats);

}  // namespace xqjg::engine::columnar

#endif  // XQJG_ENGINE_COLUMNAR_PLAN_EXEC_H_

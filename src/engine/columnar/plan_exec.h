// The executor for the cost-based physical plans of src/engine/planner.h
// — the only way a join-graph plan runs.
//
// Intermediates are alias columns — one contiguous int64 pre-rank column
// per bound doc alias — instead of one heap-allocated tuple per row.
// Scans and joins probe in batches, and the plan-tail sort keys are
// evaluated exactly once per tuple. NULL join keys never match. The
// differential suites hold the result sequences to the native
// interpreter's (tests/testutil/differential.h).
//
// Execution is governed by ExecLimits::max_memory_bytes: every live
// alias batch is charged against the budget, an over-budget hash join
// falls back to a Grace partitioned build (engine/spill.h), and the
// ORDER BY tail routes through the shared external-merge sorter — all
// bit-identical to the unlimited in-memory run (see spill.h for the
// order-exactness argument).
#ifndef XQJG_ENGINE_COLUMNAR_PLAN_EXEC_H_
#define XQJG_ENGINE_COLUMNAR_PLAN_EXEC_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/engine/exec_options.h"
#include "src/engine/exec_stream.h"
#include "src/engine/planner.h"

namespace xqjg::engine::columnar {

/// Runs the join tree, then hands the tail back as a SequenceStream of
/// result-sequence pre ranks (ordered, DISTINCT applied per the graph's
/// tail). When the memory governor pushed the ORDER BY sort to disk the
/// stream merges spilled runs batch by batch (rows_total() is -1 until
/// drained — DISTINCT and the NULL-item skip decide the count row by
/// row); otherwise it wraps the already-materialized sequence. `db`,
/// `options.params`, and `stats` (if set) must outlive the stream.
Result<std::unique_ptr<SequenceStream>> OpenPlanStreamColumnar(
    const PhysicalPlan& plan, const Database& db,
    const PlannerOptions& options, ExecStats* stats);

}  // namespace xqjg::engine::columnar

#endif  // XQJG_ENGINE_COLUMNAR_PLAN_EXEC_H_

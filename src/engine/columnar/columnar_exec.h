// Columnar batch evaluator for table-algebra plans — the executor of
// every relational plan: stacked plans, isolated plans whose join graph
// cannot be extracted, and join-graph plans, which columnar/plan_exec.cpp
// lowers onto the same operators (plus one index-probe operator for the
// B-tree access paths).
//
// Shared sub-DAGs are memoized and materialized once, and every operator
// honors the DNF budgets. Intermediates are ColumnBatches of typed
// columns, filters run as vectorized kernels over int64 arrays where the
// predicate allows, projection / attach / rowid / rank share input
// columns instead of copying rows, and the hash join builds and probes
// typed key columns (NULL keys never match, per Value::Compare).
//
// Execution is pipelined: plans run as pull-based streams of ≤4096-row
// ColumnBatch windows, with the blocking operators (sort, hash build, δ,
// ϱ) as explicit breakers that charge ExecLimits::max_memory_bytes and
// spill to disk under pressure — results stay bit-identical at every
// budget (see engine/spill.h for the order-exactness argument).
#ifndef XQJG_ENGINE_COLUMNAR_COLUMNAR_EXEC_H_
#define XQJG_ENGINE_COLUMNAR_COLUMNAR_EXEC_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/algebra/operators.h"
#include "src/common/status.h"
#include "src/engine/columnar/column_batch.h"
#include "src/engine/database.h"
#include "src/engine/exec_options.h"
#include "src/engine/exec_stream.h"
#include "src/engine/planner.h"
#include "src/xml/infoset.h"

namespace xqjg::engine::columnar {

/// Evaluates `plan` (rooted at any operator) against `doc` and returns
/// the whole result as one dense batch with the plan's schema, in the
/// pipeline's row order. Tests use it for plans not rooted at serialize.
Result<ColumnBatch> EvaluateColumnar(const algebra::OpPtr& plan,
                                     const xml::DocTable& doc,
                                     const ExecOptions& options = {});

/// Serialize-rooted plans: primes the pipeline through its final sort
/// breaker and hands back a live SequenceStream of the result sequence's
/// pre ranks — the cursor pulls them batch by batch instead of receiving
/// the whole materialized sequence. `doc`, `options.params`, and
/// `options.stats` (if set) must outlive the stream.
Result<std::unique_ptr<SequenceStream>> OpenSequenceStreamColumnar(
    const algebra::OpPtr& plan, const xml::DocTable& doc,
    const ExecOptions& options);

/// Column `col` of doc alias `alias` in a lowered join-graph plan:
/// "d<alias>.<col>".
std::string AliasColumn(int alias, const std::string& col);

/// A B-tree access path inside a lowered join-graph plan: the hinted op
/// runs as index probes of `scan` (kIxScan). A hinted π(doc) leaf probes
/// once; a hinted × (outer, π(doc)) probes once per outer row and emits
/// outer ++ π columns. The π's projection names the scanned alias's
/// output columns. The comparisons name columns d<k>.<col>; the probe
/// compiles them like σ and the hash join do, with the doc relation
/// under the scanned alias's names on the left and the outer window on
/// the right, which carries every outer column they read.
struct IndexProbe {
  const PhysNode* scan = nullptr;
  /// Checked on each B-tree match: the scan's predicates evaluable at the
  /// probe, and the nested loop's residual.
  algebra::Predicate filter;
  /// The probe range. Each comparison has the scanned alias's key term on
  /// the left and a term over outer columns or constants on the right:
  /// `eq` binds a prefix of the index key columns, one each, and `range`
  /// bounds the key column after it.
  std::vector<algebra::Comparison> eq, range;
};

/// A join-graph plan lowered onto the pipeline (columnar/plan_exec.h):
/// serialize-rooted algebra over the doc relation, plus the ops that run
/// as index probes. Immutable once built, so one lowering serves every
/// execution of a prepared plan, concurrent ones included.
struct LoweredPlan {
  algebra::OpPtr root;
  std::unordered_map<const algebra::Op*, IndexProbe> probes;
};

/// OpenSequenceStreamColumnar over `db`'s doc relation for a lowered
/// plan. The stream shares ownership of `plan`; `db`, the PhysicalPlan
/// its probes point into, and `options.params` / `options.stats` must
/// outlive the stream.
Result<std::unique_ptr<SequenceStream>> OpenSequenceStreamColumnar(
    std::shared_ptr<const LoweredPlan> plan, const Database& db,
    const ExecOptions& options);

}  // namespace xqjg::engine::columnar

#endif  // XQJG_ENGINE_COLUMNAR_COLUMNAR_EXEC_H_

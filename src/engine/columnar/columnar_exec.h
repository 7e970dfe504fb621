// Columnar batch evaluator for table-algebra plans — the executor of
// every relational plan that is not a join graph (stacked plans, and
// isolated plans whose join graph cannot be extracted).
//
// Same plans, same memoization across shared sub-DAGs, same DNF budgets,
// and bit-identical output tables (including row order) as the row
// materializer in src/engine/algebra_exec.h, which stays as the
// algebra-level reference that tests compare against. Intermediates are
// ColumnBatches of typed columns, filters run as vectorized kernels over
// int64 arrays where the predicate allows, projection / attach / rowid /
// rank share input columns instead of copying rows, and the hash join
// builds and probes typed key columns (NULL keys never match, per
// Value::Compare).
//
// Execution is pipelined: plans run as pull-based streams of ≤4096-row
// ColumnBatch windows, with the blocking operators (sort, hash build, δ,
// ϱ) as explicit breakers that charge ExecLimits::max_memory_bytes and
// spill to disk under pressure — results stay bit-identical at every
// budget (see engine/spill.h for the order-exactness argument).
#ifndef XQJG_ENGINE_COLUMNAR_COLUMNAR_EXEC_H_
#define XQJG_ENGINE_COLUMNAR_COLUMNAR_EXEC_H_

#include <memory>
#include <vector>

#include "src/algebra/operators.h"
#include "src/common/status.h"
#include "src/engine/algebra_exec.h"
#include "src/engine/exec_options.h"
#include "src/engine/exec_stream.h"
#include "src/xml/infoset.h"

namespace xqjg::engine::columnar {

/// Evaluates `plan` against `doc` via the batch executor and converts the
/// final batch to a MatTable (the only row-major materialization).
Result<MatTable> EvaluateColumnar(const algebra::OpPtr& plan,
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

}  // namespace xqjg::engine::columnar

#endif  // XQJG_ENGINE_COLUMNAR_COLUMNAR_EXEC_H_

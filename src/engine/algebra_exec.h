// Materializing evaluator for table-algebra plans.
//
// Executes a plan DAG operator by operator, materializing every
// intermediate table — deliberately mirroring the staged execution the
// paper observes DB2 applying to stacked plans ("read and then again
// materialize temporary tables", §II-D). It is the algebra-level
// reference that tests compare the compiler, the rewriter, and the
// columnar executor against; no product path runs it. Queries execute
// on the columnar executors (src/engine/columnar/), and the native
// interpreter is the query-level reference.
// Memoized intermediates are shared (shared_ptr), never deep-copied.
#ifndef XQJG_ENGINE_ALGEBRA_EXEC_H_
#define XQJG_ENGINE_ALGEBRA_EXEC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/algebra/operators.h"
#include "src/common/status.h"
#include "src/common/value.h"
#include "src/engine/exec_options.h"
#include "src/xml/infoset.h"

namespace xqjg::engine {

/// A materialized intermediate table.
struct MatTable {
  std::vector<std::string> schema;
  std::vector<std::vector<Value>> rows;

  int ColumnIndex(const std::string& name) const;
};

/// Builds the relational doc table (one row per XML node) from the infoset
/// encoding; schema = algebra::DocColumns().
MatTable BuildDocRelation(const xml::DocTable& doc);

/// Evaluates `plan` (rooted at any operator, including serialize) against
/// `doc`. For a serialize root the returned table has the serialize
/// child's schema with rows in result sequence order. ExecOptions carries
/// the DNF budget and optionally collects ExecStats; an ExecLimits
/// converts implicitly.
Result<MatTable> Evaluate(const algebra::OpPtr& plan,
                          const xml::DocTable& doc,
                          const ExecOptions& options = {});

/// Evaluates a serialize-rooted plan and returns the result sequence as
/// pre ranks (in sequence order).
Result<std::vector<int64_t>> EvaluateToSequence(const algebra::OpPtr& plan,
                                                const xml::DocTable& doc,
                                                const ExecOptions& options = {});

/// Evaluates a single predicate comparison between two rows' terms — the
/// shared predicate semantics used by every executor. NULL operands
/// compare false.
bool EvalComparison(const algebra::Comparison& cmp,
                    const std::vector<std::string>& schema,
                    const std::vector<Value>& row);

/// Applies `op` to an already-computed three-way comparison — the shared
/// comparison semantics of every executor (NULL operands compare false).
bool CompareValues(const Value& lhs, algebra::CmpOp op, const Value& rhs);

}  // namespace xqjg::engine

#endif  // XQJG_ENGINE_ALGEBRA_EXEC_H_

// ColumnBatch — the unit of work of the columnar batch executor.
//
// A batch is a schema plus one shared, immutable ValueColumn per output
// column. Columns are shared_ptr'd so structural operators (π, @, #, ϱ)
// reuse input columns without copying a cell.
//
// Late materialization: operators that shrink the row set (σ, δ) do not
// gather either — they publish a selection vector (`sel`) mapping logical
// row r to physical row (*sel)[r] of the shared columns, so chains of
// σ/π/δ carry index vectors only. Physical gathers happen exclusively at
// the boundaries that need contiguous columns: join outputs, sorts
// (serialize), and the executor exit. Row-reading helpers must translate
// logical rows through PhysRow() before indexing a column.
#ifndef XQJG_ENGINE_COLUMNAR_COLUMN_BATCH_H_
#define XQJG_ENGINE_COLUMNAR_COLUMN_BATCH_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/value_column.h"
#include "src/engine/exec_options.h"
#include "src/xml/infoset.h"

namespace xqjg::engine::columnar {

using ColumnRef = std::shared_ptr<const ValueColumn>;

/// Rows per pipeline window: streams move ≤kStreamRows rows per pull.
constexpr size_t kStreamRows = 4096;

struct ColumnBatch {
  std::vector<std::string> schema;
  std::vector<ColumnRef> cols;
  size_t num_rows = 0;  ///< logical row count (== sel->size() when lazy)
  /// Selection vector: logical → physical row of `cols`; null = dense.
  /// Entries are strictly increasing (filters preserve row order).
  std::shared_ptr<const std::vector<uint32_t>> sel;

  /// Physical row backing logical row `row`.
  size_t PhysRow(size_t row) const { return sel ? (*sel)[row] : row; }
  /// Physical length of the shared columns (≥ num_rows when lazy).
  size_t PhysSize() const { return cols.empty() ? num_rows : cols[0]->size(); }

  int ColumnIndex(const std::string& name) const;
};

/// Tracked bytes of one batch — the unit breakers charge against the
/// MemoryBudget. Lazy batches share physical columns wider than their
/// row set; their charge is scaled to the selected share so a window over
/// a large shared column does not bill the whole column per window.
int64_t ApproxBatchBytes(const ColumnBatch& b);

/// Typed doc relation (schema = algebra::DocColumns()) built directly from
/// the infoset encoding — no per-cell Value boxing; `name` and `value`
/// are dictionary-encoded. Budget-checked.
Result<ColumnBatch> DocRelationBatch(const xml::DocTable& doc,
                                     BudgetClock* clock);

/// One (batch, physical row) pair per row of a multi-batch gather.
using RowRefs = std::vector<std::pair<const ColumnBatch*, uint32_t>>;

/// Column `c` of the rows `refs` names, in order. Sources that are all
/// NULL-free int64, or all codes of one shared dictionary, copy raw (the
/// result keeps that dictionary); others append cell by cell
/// (ValueColumn::AppendFrom).
ValueColumn GatherColumn(const RowRefs& refs, size_t c);

/// Dense batch (no schema) of the rows `refs` names — GatherColumn over
/// every column of the first referenced batch's width.
ColumnBatch GatherRows(const RowRefs& refs);

/// New dense batch (no schema) holding the physical rows `phys_idx` of
/// `batch`'s columns — a typed gather of every column.
ColumnBatch GatherPhysicalRows(const ColumnBatch& batch,
                               const std::vector<uint32_t>& phys_idx);

}  // namespace xqjg::engine::columnar

#endif  // XQJG_ENGINE_COLUMNAR_COLUMN_BATCH_H_

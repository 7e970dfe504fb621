// The shared document block: ONE immutable, typed/dict ValueColumn
// materialization of the merged doc relation per corpus.
//
// Every execution lane views this block without copying a row:
//   * engine::Database adopts the column pointers as its storage,
//   * the columnar DocRelationBatch wraps the first nine columns,
//   * DocTable::FromBlock serves the row-lane / serializer accessors, and
//   * the native DocumentStore rebuilds its DOM lazily from the retained
//     source text (the only non-columnar representation, built on first
//     native use and shared across snapshots).
//
// Mutation is incremental and copy-on-write at run granularity:
//   * Append(prev, scratch, uri)  — loading document N+1 splices the new
//     rows behind the existing runs (one vector copy per column; the
//     dictionaries stay shared, pointer-identical, unless the new
//     document interns a new distinct string), and
//   * Reload(prev, scratch, uri)  — replacing a URI rebuilds only that
//     run; every other run's rows are range-copied verbatim with the pre/
//     parent/root/pss shift applied, never re-parsed or re-interned.
//
// Columns are contiguous (the executors' raw-pointer loops require it),
// so a delta produces NEW column vectors — what is shared across
// snapshots is the dictionaries, the native DOM, the indexes of pinned
// snapshots, and the bytes of every untouched run (memcpy, not rebuild).
#ifndef XQJG_XML_DOC_BLOCK_H_
#define XQJG_XML_DOC_BLOCK_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/value_column.h"
#include "src/xml/infoset.h"

namespace xqjg::xml {

/// One document's contiguous row range inside the merged block.
struct DocRun {
  std::string uri;
  int64_t base = 0;  ///< pre rank of the document's DOC row
  int64_t rows = 0;  ///< node count of the document (DOC row included)
};

class DocBlock {
 public:
  /// Engine column order (== engine::EngineDocColumns()); the algebra's
  /// doc columns are the prefix [kPre, kRoot].
  enum Col {
    kPre = 0,
    kSizeCol,
    kLevel,
    kKind,
    kName,
    kValue,
    kData,
    kParent,
    kRoot,
    kPss,
    kNumCols
  };

  /// Materializes a block from any DocTable (builder- or view-backed):
  /// int64 arrays for the structural columns, dictionary-encoded strings
  /// for name/value, doubles-with-nulls for data. Runs derive from the
  /// table's DOC rows.
  static std::shared_ptr<const DocBlock> FromTable(const DocTable& table);

  /// Appends one parsed document (`scratch` holds exactly that document,
  /// DOC row at pre 0) behind prev's runs. Every existing column is
  /// vector-copied (dictionaries shared); the new rows are offset by
  /// prev->row_count().
  static std::shared_ptr<const DocBlock> Append(
      const std::shared_ptr<const DocBlock>& prev, const DocTable& scratch,
      const std::string& uri);

  /// Replaces the run of `uri` (which must exist in prev) with the
  /// document in `scratch`. Runs before the target copy verbatim; runs
  /// after copy with pre/parent/root/pss shifted by the row-count delta;
  /// only the target's rows are built from the fresh parse.
  static std::shared_ptr<const DocBlock> Reload(
      const std::shared_ptr<const DocBlock>& prev, const DocTable& scratch,
      const std::string& uri);

  int64_t row_count() const { return rows_; }
  const std::vector<DocRun>& runs() const { return runs_; }
  /// The run of `uri`, or nullptr when absent.
  const DocRun* FindRun(const std::string& uri) const;

  const ValueColumn& column(int c) const {
    return *cols_[static_cast<size_t>(c)];
  }
  const std::shared_ptr<const ValueColumn>& column_ptr(int c) const {
    return cols_[static_cast<size_t>(c)];
  }
  /// All kNumCols shared columns in engine order.
  const std::vector<std::shared_ptr<const ValueColumn>>& columns() const {
    return cols_;
  }

  /// Approximate heap bytes of the block: per-column payload plus each
  /// DISTINCT dictionary once. The reference quantity of the
  /// memory-footprint regression (every lane's retained bytes must sum to
  /// ~1× of this, not ~3×).
  int64_t ApproxBytes() const;

 private:
  std::vector<std::shared_ptr<const ValueColumn>> cols_;
  std::vector<DocRun> runs_;
  int64_t rows_ = 0;
};

}  // namespace xqjg::xml

#endif  // XQJG_XML_DOC_BLOCK_H_

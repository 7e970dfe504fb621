// The relational back-end's storage layer: the doc relation, column
// statistics, B-tree indexes, and the workload-driven index advisor (the
// db2advis substitute behind Table VI).
//
// The doc relation is stored columnar-native: one typed ValueColumn per
// engine column (int64 arrays for pre/size/level/kind/parent/root/pss, a
// dictionary-encoded string column for name and value, doubles-with-nulls
// for data). Hot paths — scan probes, term evaluation, index builds,
// statistics — read the typed arrays directly via Column()/the typed
// accessors. When the source DocTable is backed by a shared xml::DocBlock
// (the processor's corpora always are), Build adopts the block's column
// pointers instead of materializing a copy — the database and the columnar
// doc-relation batch read the same bytes.
#ifndef XQJG_ENGINE_DATABASE_H_
#define XQJG_ENGINE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/common/value_column.h"
#include "src/engine/btree.h"
#include "src/opt/join_graph.h"
#include "src/xml/infoset.h"

namespace xqjg::engine {

/// Column order of the engine's doc relation: the algebra's doc columns
/// plus the computed column `pss` = pre + size (the paper replaces `size`
/// by this sum because it is the only way size is ever used).
const std::vector<std::string>& EngineDocColumns();

struct IndexDef {
  std::string name;                       ///< e.g. "nkspl"
  std::vector<std::string> key_columns;   ///< significant order
  std::vector<std::string> include_columns;  ///< leaf-page payload only
  bool clustered = false;

  std::string ToString() const;
};

struct ColumnStats {
  int64_t row_count = 0;
  int64_t ndv = 0;
  Value min, max;
  /// Equi-depth histogram bucket boundaries (ascending, ~32 buckets);
  /// empty for all-NULL columns.
  std::vector<Value> bucket_bounds;
  /// Exact frequencies for low-cardinality columns (kind, name).
  std::map<std::string, int64_t> frequent;

  /// Estimated fraction of rows with column = v.
  double EqSelectivity(const Value& v) const;
  /// Estimated fraction of rows within [lo, hi] (unbounded sides NULL).
  double RangeSelectivity(const Value& lo, const Value& hi) const;
};

/// One loaded database: the doc relation + indexes + statistics.
///
/// Copying a Database is cheap and copy-on-write-friendly: the typed
/// columns and statistics live in one immutable shared block, and built
/// B-trees are held through shared_ptr — a copy shares both. This is what
/// the processor's catalog snapshots rely on: index create/drop clones the
/// Database (sharing the doc-relation storage and every untouched B-tree)
/// instead of rebuilding or mutating in place, so in-flight executions
/// over the previous snapshot are never disturbed.
class Database {
 public:
  /// Builds the relation from the infoset encoding and collects stats.
  static std::unique_ptr<Database> Build(const xml::DocTable& doc);

  int64_t row_count() const { return row_count_; }

  /// Typed column access by engine column index — the storage interface
  /// every per-row loop should use (direct int64/code/double arrays).
  const ValueColumn& Column(int col) const {
    return *storage_->columns[static_cast<size_t>(col)];
  }

  /// Shared-ownership handle of one column — for sharing/identity
  /// assertions and footprint accounting (columns adopted from a
  /// DocBlock are pointer-identical to the block's).
  const std::shared_ptr<const ValueColumn>& ColumnPtr(int col) const {
    return storage_->columns[static_cast<size_t>(col)];
  }
  int ColumnIndex(const std::string& name) const;

  const ColumnStats& Stats(int col) const {
    return storage_->stats[static_cast<size_t>(col)];
  }

  /// Creates (and builds) a B-tree index.
  Status CreateIndex(const IndexDef& def);
  void DropAllIndexes();

  struct Index {
    IndexDef def;
    std::vector<int> key_cols;  ///< engine column indexes
    BTree tree;
  };
  const std::vector<std::shared_ptr<const Index>>& indexes() const {
    return indexes_;
  }

  const xml::DocTable* source() const { return source_; }

 private:
  /// The immutable doc-relation storage every copy of this Database
  /// shares. Columns are shared_ptr'd so they can additionally be shared
  /// with the xml::DocBlock they were adopted from (and with the columnar
  /// executor's doc-relation batches) — one corpus, one set of columns.
  struct Storage {
    std::vector<std::shared_ptr<const ValueColumn>> columns;
    std::vector<ColumnStats> stats;
  };

  int64_t row_count_ = 0;
  std::shared_ptr<const Storage> storage_;
  std::vector<std::shared_ptr<const Index>> indexes_;
  const xml::DocTable* source_ = nullptr;
};

/// The db2advis substitute: derives a tailored B-tree set from a join
/// graph workload (paper Table VI). Key-letter naming: p=pre, s=pre+size,
/// l=level, k=kind, n=name, v=value, d=data, q=parent, r=root.
std::vector<IndexDef> AdviseIndexes(
    const std::vector<const opt::JoinGraph*>& workload);

/// The fixed Table VI index set (what the advisor proposes for the paper's
/// Q2-with-serialization workload); used by benches and tests.
std::vector<IndexDef> TableVIIndexes();

}  // namespace xqjg::engine

#endif  // XQJG_ENGINE_DATABASE_H_

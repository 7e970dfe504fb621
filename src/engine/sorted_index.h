// Indexes as sorted permutations of pre ranks — the engine's only index
// structure (the paper's point is that *vanilla* B-trees suffice).
//
// A read-only B-tree over a column store needs no pointer tree: its leaf
// level is the pre ranks sorted by the key columns, and a binary search
// does the descent (Rao and Ross, CSS-trees, VLDB 1999). So an index over
// key columns (c1, …, cm) is the uint32_t permutation of pre ranks sorted
// by (c1, …, cm, pre); the key cells stay in the database's typed columns.
// Probes bind an equality prefix plus one range component, the sargable
// shape of the join graph workload (paper §IV).
//
// The order is Value::SortLess per column: NULLs first, numbers before
// strings, ints and doubles compared numerically. Each column maps its
// cells to order-preserving uint64_t normalized keys (Graefe, "Modern
// B-Tree Techniques", 2011): ints sign-flipped, doubles bit-flipped,
// dictionary strings the rank of their code.
#ifndef XQJG_ENGINE_SORTED_INDEX_H_
#define XQJG_ENGINE_SORTED_INDEX_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/common/value_column.h"

namespace xqjg::engine {

/// A position among one column's normalized keys: (key, adj) is at `key`
/// (adj 0) or just below (-1) or above (+1) it, for a bound equal to no
/// representable key. Positions order lexicographically.
using KeyPos = std::pair<uint64_t, int>;

/// One typed column seen through its normalized keys; made once per
/// column per Database and shared by every index over the column.
class KeyColumn {
 public:
  /// Fails for kString and kMixed columns (the doc relation has none).
  static Result<std::shared_ptr<const KeyColumn>> Make(
      std::shared_ptr<const ValueColumn> col);

  const ValueColumn& column() const { return *col_; }
  bool IsNull(size_t row) const { return col_->IsNull(row); }
  /// The normalized key of a non-NULL cell.
  uint64_t Norm(size_t row) const;
  /// -1, 0 or 1 as cell `row` sorts before, at or after `pos`.
  int CompareAt(size_t row, const KeyPos& pos) const {
    if (IsNull(row)) return -1;
    const uint64_t k = Norm(row);
    if (k != pos.first) return k < pos.first ? -1 : 1;
    return -pos.second;
  }
  /// Where the non-NULL `v` falls among the cells under SortLess. False
  /// for a NaN, which compares equal to every number.
  bool Locate(const Value& v, KeyPos* pos) const;
  /// Heap bytes of the dictionary ranks (the column itself is shared).
  int64_t ApproxBytes() const;

 private:
  std::shared_ptr<const ValueColumn> col_;
  std::vector<uint32_t> rank_;     ///< kDictString: code → rank
  std::vector<uint32_t> by_rank_;  ///< kDictString: rank → code
};

class SortedIndex;

/// One probe's bounds located among an index's key columns: an equality
/// per leading key column, then the tightest lower and upper bound on the
/// next one (on a tie the strict one). Add* return false for a NULL
/// value: NULL never matches, so the probe is empty.
class ProbeRange {
 public:
  void Reset() {
    eq_.clear();
    lo_ = hi_ = Side();
    open_ = false;
  }
  bool AddEq(const SortedIndex& index, const Value& v);
  /// key > v (`lower`, `strict`), key >= v, key < v or key <= v.
  bool AddBound(const SortedIndex& index, const Value& v, bool lower,
                bool strict);

 private:
  friend class SortedIndex;
  struct Side {
    bool set = false, strict = false;
    KeyPos pos;
  };

  std::vector<KeyPos> eq_;
  Side lo_, hi_;
  /// A value that cannot be located ends the usable prefix: later columns
  /// stay unbounded (the probe's filter still checks them).
  bool open_ = false;
};

class SortedIndex {
 public:
  SortedIndex() = default;
  /// `pres` is the permutation sorted by `keys` (see SortPres).
  SortedIndex(std::vector<std::shared_ptr<const KeyColumn>> keys,
              std::shared_ptr<const std::vector<uint32_t>> pres)
      : keys_(std::move(keys)), pres_(std::move(pres)) {}

  /// The pre ranks 0..rows-1 sorted by (`keys`…, pre): a stable LSD radix
  /// sort over the normalized keys starting from pre order, skipping the
  /// bytes no row differs in. No keys is the identity, with no pass.
  static std::vector<uint32_t> SortPres(
      const std::vector<const KeyColumn*>& keys, size_t rows);

  size_t num_keys() const { return keys_.size(); }
  const KeyColumn& key(size_t i) const { return *keys_[i]; }
  const std::vector<uint32_t>& pres() const { return *pres_; }
  const std::shared_ptr<const std::vector<uint32_t>>& pres_ptr() const {
    return pres_;
  }

  /// The slice [first, last) of pres() inside `range` (binary search):
  /// key order, then pre order.
  std::pair<size_t, size_t> Find(const ProbeRange& range) const;

 private:
  std::vector<std::shared_ptr<const KeyColumn>> keys_;
  std::shared_ptr<const std::vector<uint32_t>> pres_;
};

}  // namespace xqjg::engine

#endif  // XQJG_ENGINE_SORTED_INDEX_H_

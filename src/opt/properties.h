// Plan property inference (paper §III-A, Tables II–V).
//
// For every operator of a plan DAG we infer:
//   icols  — input columns strictly required upstream (top-down, Table II)
//   const  — columns holding one constant value in every row (bottom-up,
//            Table III)
//   key    — candidate keys of the operator's output (bottom-up, Table IV)
//   set    — whether the output undergoes duplicate elimination upstream
//            (top-down, Table V)
//
// Each property of a node is a function of its children's (bottom-up) or
// its parents' (top-down) properties, computed by InferUp / AddDemand
// below. PropertyMap::Infer evaluates them over a whole DAG; the rewriter
// (src/opt/rewrite_state.h) re-evaluates them only where a rewrite
// changed something, and checks itself against Infer under
// XQJG_VALIDATE_REWRITES.
//
// Column names are interned to dense ids (ColumnIds) so the property sets
// are sorted id vectors instead of string sets.
#ifndef XQJG_OPT_PROPERTIES_H_
#define XQJG_OPT_PROPERTIES_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/algebra/dag.h"
#include "src/algebra/operators.h"

namespace xqjg::opt {

/// Dense id of a column name (see ColumnIds).
using ColId = uint32_t;
inline constexpr ColId kNoCol = UINT32_MAX;
/// Sorted, duplicate-free set of column ids.
using ColSet = std::vector<ColId>;

/// Interns the column names of a plan. Every name mentioned under the root
/// given at construction gets its id in name order, so a ColSet iterates
/// in the order a std::set<std::string> would. Rewrite rules only reuse
/// existing names; a name first seen later is appended.
class ColumnIds {
 public:
  explicit ColumnIds(const algebra::OpPtr& root);

  ColId Intern(const std::string& name);
  /// kNoCol when `name` was never interned.
  ColId Find(const std::string& name) const;
  const std::string& Name(ColId id) const { return names_[id]; }

 private:
  std::unordered_map<std::string, ColId> ids_;
  std::vector<std::string> names_;
};

struct NodeProps {
  /// The operator's output columns (its schema as a set).
  ColSet cols;
  /// A projection's (output, input) pairs, interned.
  std::vector<std::pair<ColId, ColId>> proj;
  ColSet icols;
  /// Constant columns with their value, sorted by column.
  std::vector<std::pair<ColId, Value>> consts;
  std::vector<ColSet> keys;
  bool dedup_upstream = true;  ///< the paper's `set` property
  /// Column equality classes: columns holding pairwise equal values in
  /// every output row (duplicated projection outputs, equi-join columns).
  /// Sorted (column, class) pairs; a class is named by its least member,
  /// so two references to one shared subplan never alias (each projection
  /// names its classes by its own output columns).
  std::vector<std::pair<ColId, ColId>> eq_class;
  /// Resolves the name-taking accessors below.
  const ColumnIds* names = nullptr;

  bool Needs(ColId col) const;
  const Value* ConstOf(ColId col) const;
  ColId EqClassOf(ColId col) const;  ///< kNoCol when absent
  bool HasSingletonKey(ColId col) const;
  /// True iff some candidate key is contained in `within`.
  bool HasKeyAmong(const ColSet& within) const;
  /// True iff some candidate key lies within `within`, where a key column
  /// may be represented by any column of its equality class.
  bool HasKeyWithinModuloEq(const ColSet& within) const;

  // Name-taking accessors (rules that read operator fields, tests, tools).
  bool Needs(const std::string& col) const;
  bool IsConst(const std::string& col) const { return ConstOf(col) != nullptr; }
  const Value* ConstOf(const std::string& col) const;
  /// Class id of `col`, or -1 when absent.
  int EqClassOf(const std::string& col) const;
  bool HasSingletonKey(const std::string& col) const;
  /// True iff some candidate key is contained in `within`.
  bool HasKeyWithin(const std::set<std::string>& within) const;
  std::set<std::string> IcolNames() const;
  std::vector<std::set<std::string>> KeyNames() const;
};

/// Sets `p`'s bottom-up properties (cols, proj, const, key, eq_class) from
/// the operator and its children's properties (`kids[i]` for child i).
void InferUp(const algebra::Op& op, const NodeProps* const* kids,
             ColumnIds* ids, NodeProps* p);

/// The plan root's own top-down properties: a serialize root needs its
/// position and item columns and keeps duplicates.
void SeedRoot(const algebra::Op& root, ColumnIds* ids, ColSet* icols,
              bool* set);

/// Adds what `parent` (with properties `pp`) demands of a child whose
/// output columns are `child_cols`: columns to `icols` (unsorted; the
/// caller normalizes), and its `set` contribution ANDed into `set`.
void AddDemand(const algebra::Op& parent, const NodeProps& pp,
               const ColSet& child_cols, ColumnIds* ids, ColSet* icols,
               bool* set);

/// Sorts and deduplicates a column list into a ColSet.
void Normalize(ColSet* cols);

/// True iff `op` is a join whose every conjunct is a column equality.
inline bool IsEquiJoin(const algebra::Op& op) {
  if (op.kind != algebra::OpKind::kJoin || op.pred.conjuncts.empty()) {
    return false;
  }
  for (const auto& c : op.pred.conjuncts) {
    if (!c.IsColEq()) return false;
  }
  return true;
}

class PropertyMap {
 public:
  /// Runs all four inferences over the DAG under `root`, from scratch.
  static PropertyMap Infer(const algebra::OpPtr& root);

  const NodeProps& Get(const algebra::Op* op) const;

 private:
  std::unique_ptr<ColumnIds> names_;
  std::unordered_map<const algebra::Op*, NodeProps> props_;
};

/// Caps applied to the key inference so candidate-key sets stay small.
inline constexpr size_t kMaxKeys = 24;
inline constexpr size_t kMaxKeyWidth = 6;

}  // namespace xqjg::opt

#endif  // XQJG_OPT_PROPERTIES_H_

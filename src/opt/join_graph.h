// Join graph extraction: flattens an isolated plan into the declarative
// form the paper ships to the RDBMS — a bundle of doc-table aliases, a
// conjunctive predicate set, and the SELECT-DISTINCT / ORDER BY tail
// (paper §III-C, Figs 8/9).
#ifndef XQJG_OPT_JOIN_GRAPH_H_
#define XQJG_OPT_JOIN_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/algebra/operators.h"
#include "src/common/status.h"

namespace xqjg::opt {

/// Term over qualified columns: value = Σ (alias_i.col_i) + constant.
/// alias == -1 marks an absent column part. A term with param >= 0 is a
/// parameter marker: a constant whose Value is bound at Execute time (the
/// executors substitute it into `constant` before compiling qualifiers).
struct QualTerm {
  int alias = -1;
  std::string col;
  int alias2 = -1;
  std::string col2;
  Value constant;  ///< NULL when absent
  int param = -1;  ///< binding slot of a parameter marker
  std::string param_name;  ///< parameter name (diagnostics / SQL rendering)

  bool IsConst() const { return alias < 0; }
  bool IsParam() const { return param >= 0; }
  bool IsSimpleCol() const {
    return alias >= 0 && alias2 < 0 && constant.is_null() && param < 0;
  }
  bool operator==(const QualTerm& other) const;
  std::string ToString() const;  ///< "d2.pre + d2.size + 1"
};

struct QualComparison {
  QualTerm lhs;
  algebra::CmpOp op = algebra::CmpOp::kEq;
  QualTerm rhs;

  /// Bit a is set iff alias d<a> is referenced by any of the four column
  /// parts (lhs.alias, lhs.alias2, rhs.alias, rhs.alias2). Aliases beyond
  /// 31 do not fit and are left out: physical plans have at most 31.
  uint32_t AliasMask() const;
  std::string ToString() const;
};

/// The declarative join graph + plan tail.
struct JoinGraph {
  int num_aliases = 0;  ///< doc instances d0 .. d(n-1)
  std::vector<QualComparison> predicates;

  bool distinct = false;
  /// SELECT list (the δ payload after isolation; superset of order_by and
  /// item).
  std::vector<QualTerm> select_list;
  /// ORDER BY criteria, significant order.
  std::vector<QualTerm> order_by;
  /// The column holding the result nodes' pre ranks.
  QualTerm item;

  /// Tail-operator metadata for batch executors: true iff the DISTINCT
  /// payload (select_list) and the sort key (order_by + item) consist of
  /// exactly the same terms, so the batched plan tail may deduplicate by
  /// comparing adjacent sort keys instead of re-evaluating the payload.
  bool DistinctPayloadEqualsSortKey() const;

  std::string ToString() const;  ///< debugging dump
};

/// Normalizes a conjunct so that, if possible, the side referencing only
/// `alias` is on the left (shared by access-path selection and the scan
/// probes of both physical executors).
QualComparison OrientTo(const QualComparison& p, int alias);

/// The single index column a term denotes for sargability purposes:
/// `pre + size` of one alias maps to the computed column `pss`; a plain
/// column (optionally + numeric constant) maps to itself; anything else is
/// not sargable (empty).
std::string SargColumn(const QualTerm& t, int alias);

/// Probe value for `col_term OP other`, given the sarg side's constant:
/// when it is a number k (col + k OP v), the probe compares col OP v - k.
Value AdjustProbeValue(const Value& sarg_constant, Value v);

/// Flattens the isolated plan into a JoinGraph. Fails with NotSupported if
/// blocking operators remain outside the plan tail (plan not isolatable —
/// callers fall back to direct DAG execution).
Result<JoinGraph> ExtractJoinGraph(const algebra::OpPtr& isolated_root);

}  // namespace xqjg::opt

#endif  // XQJG_OPT_JOIN_GRAPH_H_

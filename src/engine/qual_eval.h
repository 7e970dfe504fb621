// Compiled qualifier evaluation over the columnar doc relation for the
// index-probe operator of the batch pipeline (columnar_exec.cpp), which
// runs the IXSCAN access paths of join-graph plans.
//
// A QualTerm / QualComparison is bound against the Database ONCE per
// probe operator: column names resolve to typed ValueColumn pointers (no
// per-row ColumnIndex string search), all-integer terms compile to raw
// int64 pointer sums, and `name = '...'`-shaped predicates compile to a
// single dictionary-code comparison. Per row, evaluation takes a row
// view — any callable mapping alias → pre rank (< 0 = unbound) — so one
// compiled qualifier serves the probe-range bounds of an outer row and
// the checks on each B-tree match.
//
// Semantics mirror the historical boxed EvalQualTerm/EvalQualComparison
// exactly: terms are Σ cols + constant with NULL poisoning (unbound alias
// or NULL cell → NULL term), and comparisons against NULL are never true.
#ifndef XQJG_ENGINE_QUAL_EVAL_H_
#define XQJG_ENGINE_QUAL_EVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/common/value_column.h"
#include "src/engine/btree.h"
#include "src/engine/database.h"
#include "src/engine/planner.h"
#include "src/opt/join_graph.h"

namespace xqjg::engine {

/// Substitutes bound parameter values into a term / comparison before it
/// is compiled against the database. Qualifiers are compiled per plan node
/// per execution, so each execution's bindings produce fresh compiled
/// quals (including the dictionary-code equality kernel) from one shared
/// PhysicalPlan. A marker without a binding keeps its NULL constant — the
/// comparison is then never true, matching NULL-comparison semantics; the
/// API layer rejects unbound parameters before execution starts.
inline opt::QualTerm ResolveParams(opt::QualTerm t,
                                   const std::vector<Value>* params) {
  if (t.param >= 0 && params &&
      static_cast<size_t>(t.param) < params->size()) {
    t.constant = (*params)[static_cast<size_t>(t.param)];
    t.param = -1;
  }
  return t;
}

inline opt::QualComparison ResolveParams(opt::QualComparison p,
                                         const std::vector<Value>* params) {
  p.lhs = ResolveParams(std::move(p.lhs), params);
  p.rhs = ResolveParams(std::move(p.rhs), params);
  return p;
}

/// A QualTerm bound to the database's typed columns.
class BoundQualTerm {
 public:
  BoundQualTerm() = default;

  BoundQualTerm(const opt::QualTerm& t, const Database& db) {
    constant_ = t.constant;
    auto bind = [&](int alias, const std::string& col) {
      if (alias < 0) return;
      Ref& r = refs_[num_refs_++];
      r.alias = alias;
      r.col = &db.Column(db.ColumnIndex(col));
      r.ints = (r.col->tag() == ColumnTag::kInt && !r.col->has_nulls())
                   ? r.col->ints().data()
                   : nullptr;
    };
    bind(t.alias, t.col);
    bind(t.alias2, t.col2);
    int_only_ =
        constant_.is_null() || constant_.type() == ValueType::kInt;
    for (int i = 0; i < num_refs_; ++i) {
      int_only_ = int_only_ && refs_[i].ints != nullptr;
    }
    // The all-absent term is the NULL term, not integer 0.
    if (num_refs_ == 0 && constant_.is_null()) int_only_ = false;
    if (int_only_ && !constant_.is_null()) const_int_ = constant_.AsInt();
  }

  /// True when every referenced column is null-free int64 and the
  /// constant (if any) is an int — EvalInt() is then exact.
  bool int_only() const { return int_only_; }

  /// Generic evaluation; `pre_of(alias)` yields the row's pre rank.
  template <typename PreOf>
  Value Eval(const PreOf& pre_of) const {
    Value acc = constant_;
    bool have = !acc.is_null();
    for (int i = 0; i < num_refs_; ++i) {
      const Ref& r = refs_[i];
      const int64_t pre = pre_of(r.alias);
      if (pre < 0) return Value::Null();
      const auto row = static_cast<size_t>(pre);
      if (r.col->IsNull(row)) return Value::Null();
      if (!AccumulateTermValue(&acc, &have, r.col->GetValue(row))) {
        return Value::Null();
      }
    }
    return acc;
  }

  /// Integer fast path (int_only() terms): returns false for a NULL term
  /// (an unbound alias).
  template <typename PreOf>
  bool EvalInt(const PreOf& pre_of, int64_t* out) const {
    int64_t v = const_int_;
    for (int i = 0; i < num_refs_; ++i) {
      const int64_t pre = pre_of(refs_[i].alias);
      if (pre < 0) return false;
      v += refs_[i].ints[pre];
    }
    *out = v;
    return true;
  }

 private:
  struct Ref {
    int alias = -1;
    const ValueColumn* col = nullptr;
    const int64_t* ints = nullptr;  // int fast path (null-free int64)
  };
  Ref refs_[2];
  int num_refs_ = 0;
  Value constant_;
  int64_t const_int_ = 0;
  bool int_only_ = false;
};

/// A QualComparison bound to the database: integer comparisons run over
/// raw int64 arrays; `dict_col = 'const'` (and ≠) over dictionary codes;
/// everything else through boxed Values with identical semantics.
class BoundQualCmp {
 public:
  BoundQualCmp() = default;

  BoundQualCmp(const opt::QualComparison& p, const Database& db)
      : lhs_(p.lhs, db), rhs_(p.rhs, db), op_(p.op) {
    fast_int_ = lhs_.int_only() && rhs_.int_only();
    if (op_ != algebra::CmpOp::kEq && op_ != algebra::CmpOp::kNe) return;
    const opt::QualTerm* col_side = nullptr;
    const opt::QualTerm* const_side = nullptr;
    if (p.lhs.IsSimpleCol() && p.rhs.IsConst() && p.rhs.alias2 < 0) {
      col_side = &p.lhs;
      const_side = &p.rhs;
    } else if (p.rhs.IsSimpleCol() && p.lhs.IsConst() && p.lhs.alias2 < 0) {
      col_side = &p.rhs;
      const_side = &p.lhs;
    }
    if (!col_side || const_side->constant.type() != ValueType::kString) {
      return;
    }
    dict_ = DictEqKernel::Compile(db.Column(db.ColumnIndex(col_side->col)),
                                  const_side->constant.AsString(),
                                  op_ == algebra::CmpOp::kNe);
    dict_alias_ = col_side->alias;
  }

  template <typename PreOf>
  bool Test(const PreOf& pre_of) const {
    if (dict_.ok) {
      const int64_t pre = pre_of(dict_alias_);
      if (pre < 0) return false;  // NULL term: comparison unknown
      return dict_.Test(static_cast<size_t>(pre));
    }
    if (fast_int_) {
      int64_t a, b;
      if (!lhs_.EvalInt(pre_of, &a) || !rhs_.EvalInt(pre_of, &b)) {
        return false;
      }
      switch (op_) {
        case algebra::CmpOp::kEq:
          return a == b;
        case algebra::CmpOp::kNe:
          return a != b;
        case algebra::CmpOp::kLt:
          return a < b;
        case algebra::CmpOp::kLe:
          return a <= b;
        case algebra::CmpOp::kGt:
          return a > b;
        case algebra::CmpOp::kGe:
          return a >= b;
      }
      return false;
    }
    const Value lhs = lhs_.Eval(pre_of);
    const Value rhs = rhs_.Eval(pre_of);
    const int c = lhs.Compare(rhs);
    if (c == Value::kNullCmp) return false;
    switch (op_) {
      case algebra::CmpOp::kEq:
        return c == 0;
      case algebra::CmpOp::kNe:
        return c != 0;
      case algebra::CmpOp::kLt:
        return c < 0;
      case algebra::CmpOp::kLe:
        return c <= 0;
      case algebra::CmpOp::kGt:
        return c > 0;
      case algebra::CmpOp::kGe:
        return c >= 0;
    }
    return false;
  }

 private:
  BoundQualTerm lhs_, rhs_;
  algebra::CmpOp op_ = algebra::CmpOp::kEq;
  bool fast_int_ = false;
  // Shared dictionary equality kernel: alias.col OP 'const' over codes.
  DictEqKernel dict_;
  int dict_alias_ = -1;
};

/// Compiles a node's predicate list (all aliases must be bound within
/// `bound_mask` for a predicate to be included; the rest are re-checked
/// at the join that binds them — same skip rule as the historical per-row
/// evaluability test, which was constant across a node's rows anyway).
inline std::vector<BoundQualCmp> CompileQuals(
    const std::vector<opt::QualComparison>& preds, const Database& db,
    uint32_t bound_mask, const std::vector<Value>* params = nullptr) {
  std::vector<BoundQualCmp> out;
  out.reserve(preds.size());
  for (const auto& p : preds) {
    if (p.AliasMask() & ~bound_mask) continue;
    if (params) {
      out.emplace_back(ResolveParams(p, params), db);
    } else {
      out.emplace_back(p, db);  // no copy on the common unparameterized path
    }
  }
  return out;
}

/// The per-node compiled form of a scan: residual predicates checked per
/// fetched row, plus (for index scans) the probe-range plan — which
/// predicates feed the equality prefix and the range component, matched
/// once instead of per outer row.
struct CompiledScan {
  std::vector<BoundQualCmp> row_preds;

  struct ProbeTerm {
    opt::QualTerm sarg;  ///< oriented lhs — AdjustProbeValue input
    BoundQualTerm rhs;   ///< evaluated against outer bindings only
    algebra::CmpOp op = algebra::CmpOp::kEq;
  };
  std::vector<ProbeTerm> eq;     ///< one per equality-bound key column
  std::vector<ProbeTerm> range;  ///< comparisons on the next key column
};

/// Compiles `node` (kTbScan/kIxScan) probed with `outer_mask` bound.
/// `params` supplies Execute-time bindings for parameter markers.
inline CompiledScan CompileScan(const PhysNode& node, const Database& db,
                                uint32_t outer_mask,
                                const std::vector<Value>* params = nullptr) {
  CompiledScan cs;
  cs.row_preds = CompileQuals(node.preds, db,
                              outer_mask | (1u << node.alias), params);
  if (node.kind != PhysKind::kIxScan) return cs;
  const auto& key_cols = node.index->def.key_columns;
  // Orient (and bind) each predicate once, not once per key column.
  std::vector<opt::QualComparison> oriented;
  std::vector<std::string> sarg;
  oriented.reserve(node.preds.size());
  sarg.reserve(node.preds.size());
  for (const opt::QualComparison& p : node.preds) {
    oriented.push_back(ResolveParams(opt::OrientTo(p, node.alias), params));
    sarg.push_back(opt::SargColumn(oriented.back().lhs, node.alias));
  }
  std::vector<char> used(oriented.size(), 0);
  auto usable = [&](size_t i, size_t k) {
    if (used[i] || sarg[i] != key_cols[k]) return false;
    const opt::QualTerm& rhs = oriented[i].rhs;
    for (int a : {rhs.alias, rhs.alias2}) {
      if (a >= 0 && !(outer_mask & (1u << a))) return false;
    }
    return true;
  };
  size_t k = 0;
  for (; k < key_cols.size(); ++k) {
    bool matched = false;
    for (size_t i = 0; i < oriented.size(); ++i) {
      const opt::QualComparison& p = oriented[i];
      if (p.op != algebra::CmpOp::kEq || !usable(i, k)) continue;
      cs.eq.push_back({p.lhs, BoundQualTerm(p.rhs, db), p.op});
      used[i] = 1;
      matched = true;
      break;
    }
    if (!matched) break;
  }
  if (k < key_cols.size()) {
    for (size_t i = 0; i < oriented.size(); ++i) {
      const opt::QualComparison& p = oriented[i];
      if (p.op == algebra::CmpOp::kEq || p.op == algebra::CmpOp::kNe ||
          !usable(i, k)) {
        continue;
      }
      cs.range.push_back({p.lhs, BoundQualTerm(p.rhs, db), p.op});
      used[i] = 1;
    }
  }
  return cs;
}

/// Builds the B-tree probe range for one outer row. Returns false when a
/// probe value is NULL — the scan then yields no rows (NULL never
/// matches), mirroring the historical early-out.
template <typename PreOf>
bool BuildProbeRange(const CompiledScan& cs, const PreOf& outer_row,
                     KeyRange* range) {
  for (const auto& pt : cs.eq) {
    Value v = opt::AdjustProbeValue(pt.sarg, pt.rhs.Eval(outer_row));
    if (v.is_null()) return false;
    range->lower.push_back(v);
    range->upper.push_back(std::move(v));
  }
  bool have_lo = false, have_hi = false;
  Value lo, hi;
  for (const auto& rt : cs.range) {
    Value v = opt::AdjustProbeValue(rt.sarg, rt.rhs.Eval(outer_row));
    if (v.is_null()) return false;
    switch (rt.op) {
      case algebra::CmpOp::kLt:
        if (!have_hi || v.SortLess(hi)) hi = v;
        have_hi = true;
        range->upper_inclusive = false;
        break;
      case algebra::CmpOp::kLe:
        if (!have_hi || v.SortLess(hi)) hi = v;
        have_hi = true;
        break;
      case algebra::CmpOp::kGt:
        if (!have_lo || lo.SortLess(v)) lo = v;
        have_lo = true;
        range->lower_inclusive = false;
        break;
      case algebra::CmpOp::kGe:
        if (!have_lo || lo.SortLess(v)) lo = v;
        have_lo = true;
        break;
      default:
        break;
    }
  }
  if (have_lo) range->lower.push_back(std::move(lo));
  if (have_hi) range->upper.push_back(std::move(hi));
  return true;
}

}  // namespace xqjg::engine

#endif  // XQJG_ENGINE_QUAL_EVAL_H_

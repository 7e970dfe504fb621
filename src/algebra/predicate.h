// Predicate language of the table algebra (paper Table I / Fig. 3).
//
// Every predicate is a conjunction of comparisons between *terms*. A term
// is `col (+ col2)? (+ const)?` — exactly enough to express the XPath axis
// predicates (`pre° < pre <= pre° + size°`, `level° + 1 = level`) and the
// kind/name/value tests, and simple enough to ship as one SQL WHERE
// conjunct per comparison.
#ifndef XQJG_ALGEBRA_PREDICATE_H_
#define XQJG_ALGEBRA_PREDICATE_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/value.h"

namespace xqjg::algebra {

/// Comparison operators in predicates.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpToString(CmpOp op);
CmpOp FlipCmpOp(CmpOp op);  ///< a OP b  <=>  b FlipCmpOp(OP) a
/// `lhs OP rhs` over Value::Compare — the comparison semantics of every
/// executor and of plan-time constant folding. NULL operands compare
/// false.
bool CompareValues(const Value& lhs, CmpOp op, const Value& rhs);

/// col + col2 + constant (absent parts contribute nothing). A term may
/// instead be a *parameter marker* (param >= 0): a constant whose value is
/// unknown until Execute binds it — the executors substitute the bound
/// Value for `constant` before compiling qualifiers.
struct Term {
  std::string col;        ///< empty for pure constants
  std::string col2;       ///< optional second column (e.g. pre + size)
  Value constant;         ///< NULL when absent
  int param = -1;         ///< binding slot of a parameter marker
  std::string param_name; ///< parameter name (diagnostics / rendering)

  static Term Col(std::string c) {
    Term t;
    t.col = std::move(c);
    return t;
  }
  static Term ColSum(std::string c1, std::string c2) {
    Term t;
    t.col = std::move(c1);
    t.col2 = std::move(c2);
    return t;
  }
  static Term ColPlus(std::string c, int64_t k) {
    Term t;
    t.col = std::move(c);
    t.constant = Value::Int(k);
    return t;
  }
  static Term Const(Value v) {
    Term t;
    t.constant = std::move(v);
    return t;
  }
  static Term Param(int slot, std::string name) {
    Term t;
    t.param = slot;
    t.param_name = std::move(name);
    return t;
  }

  bool IsConst() const { return col.empty(); }
  bool IsParam() const { return param >= 0; }
  bool IsSimpleCol() const {
    return !col.empty() && col2.empty() && constant.is_null();
  }

  /// Columns referenced by this term.
  void CollectCols(std::set<std::string>* out) const;

  /// Substitutes column names (for pushing predicates through renames).
  /// Returns false if a referenced column has no image in `mapping`.
  bool RenameCols(const std::vector<std::pair<std::string, std::string>>&
                      out_to_in);

  std::string ToString() const;
  bool operator==(const Term& other) const;
};

/// One conjunct: lhs op rhs.
struct Comparison {
  Term lhs;
  CmpOp op = CmpOp::kEq;
  Term rhs;

  /// True iff this is `a = b` for two plain columns.
  bool IsColEq() const {
    return op == CmpOp::kEq && lhs.IsSimpleCol() && rhs.IsSimpleCol();
  }

  void CollectCols(std::set<std::string>* out) const;
  std::string ToString() const;
  bool operator==(const Comparison& other) const;
};

/// Substitutes a bound Value for a parameter marker. Every relational
/// plan binds its parameters here: stacked and fallback plans, and
/// join-graph plans, whose predicates are lowered to algebra terms
/// (engine/columnar/plan_exec.h). With no bindings a marker keeps its
/// NULL constant, so every comparison against it is false — the same
/// contract as an unbound qualifier. Out-of-range slots also stay NULL
/// (Execute validates the binding list before any executor runs).
inline Term ResolveParams(Term t, const std::vector<Value>* params) {
  if (t.IsParam() && params && t.param < static_cast<int>(params->size())) {
    t.constant = (*params)[t.param];
    t.param = -1;
  }
  return t;
}

inline Comparison ResolveParams(Comparison c,
                                const std::vector<Value>* params) {
  c.lhs = ResolveParams(std::move(c.lhs), params);
  c.rhs = ResolveParams(std::move(c.rhs), params);
  return c;
}

/// Appends a term's parameter-marker / constant tail to `out` (shared by
/// the algebra Term and the join graph's QualTerm renderers, which must
/// agree): " + $name" / "$name", then " + const" / "'const'" / "const".
void AppendTermTail(std::string* out, int param,
                    const std::string& param_name, const Value& constant);

/// A conjunction of comparisons; empty predicate = true.
struct Predicate {
  std::vector<Comparison> conjuncts;

  static Predicate True() { return Predicate{}; }
  static Predicate Single(Term lhs, CmpOp op, Term rhs) {
    return Predicate{{Comparison{std::move(lhs), op, std::move(rhs)}}};
  }

  Predicate& And(Term lhs, CmpOp op, Term rhs) {
    conjuncts.push_back(Comparison{std::move(lhs), op, std::move(rhs)});
    return *this;
  }
  Predicate& And(const Predicate& other) {
    conjuncts.insert(conjuncts.end(), other.conjuncts.begin(),
                     other.conjuncts.end());
    return *this;
  }

  bool IsTrue() const { return conjuncts.empty(); }

  /// cols(p) of the paper's property inference.
  std::set<std::string> Cols() const;

  std::string ToString() const;
};

}  // namespace xqjg::algebra

#endif  // XQJG_ALGEBRA_PREDICATE_H_

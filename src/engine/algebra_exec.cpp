#include "src/engine/algebra_exec.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/algebra/dag.h"
#include "src/common/str.h"

namespace xqjg::engine {

using algebra::CmpOp;
using algebra::Comparison;
using algebra::Op;
using algebra::OpKind;
using algebra::OpPtr;
using algebra::Term;

int MatTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i] == name) return static_cast<int>(i);
  }
  return -1;
}

MatTable BuildDocRelation(const xml::DocTable& doc) {
  MatTable out;
  out.schema = algebra::DocColumns();
  out.rows.reserve(static_cast<size_t>(doc.row_count()));
  // Load-time conversion, not query execution (the DNF budget governs
  // query row production).  xqjg-lint: allow(no-budget-guard)
  for (int64_t pre = 0; pre < doc.row_count(); ++pre) {
    std::vector<Value> row;
    row.reserve(9);
    row.push_back(Value::Int(pre));
    row.push_back(Value::Int(doc.size(pre)));
    row.push_back(Value::Int(doc.level(pre)));
    row.push_back(Value::Int(static_cast<int64_t>(doc.kind(pre))));
    row.push_back(Value::String(doc.name(pre)));
    row.push_back(doc.has_value(pre) ? Value::String(doc.value(pre))
                                     : Value::Null());
    row.push_back(doc.has_data(pre) ? Value::Double(doc.data(pre))
                                    : Value::Null());
    row.push_back(Value::Int(doc.Parent(pre)));
    row.push_back(Value::Int(doc.Root(pre)));
    out.rows.push_back(std::move(row));
  }
  return out;
}

namespace {

Value EvalTerm(const Term& term, const std::vector<std::string>& schema,
               const std::vector<Value>& row) {
  auto col_value = [&](const std::string& c) -> const Value* {
    for (size_t i = 0; i < schema.size(); ++i) {
      if (schema[i] == c) return &row[i];
    }
    return nullptr;
  };
  Value acc = term.constant;  // NULL when absent
  bool have = !acc.is_null();
  auto add = [&](const std::string& c) {
    if (c.empty()) return true;
    const Value* v = col_value(c);
    if (!v || v->is_null()) {
      acc = Value::Null();
      return false;
    }
    return AccumulateTermValue(&acc, &have, *v);
  };
  if (!add(term.col)) return Value::Null();
  if (!add(term.col2)) return Value::Null();
  return acc;
}

/// Hash of a row restricted to the given column indexes.
size_t HashCols(const std::vector<Value>& row, const std::vector<int>& idx) {
  size_t h = 0xcbf29ce484222325ULL;
  for (int i : idx) {
    h = h * 1099511628211ULL + row[static_cast<size_t>(i)].Hash();
  }
  return h;
}

/// True iff any of the key columns holds NULL — such rows can never
/// satisfy an equality join predicate (Value::Compare: NULL is
/// incomparable), so the hash join skips them at build and probe.
bool AnyKeyNull(const std::vector<Value>& row, const std::vector<int>& idx) {
  for (int i : idx) {
    if (row[static_cast<size_t>(i)].is_null()) return true;
  }
  return false;
}

bool EqualCols(const std::vector<Value>& a, const std::vector<int>& ia,
               const std::vector<Value>& b, const std::vector<int>& ib) {
  for (size_t k = 0; k < ia.size(); ++k) {
    const Value& va = a[static_cast<size_t>(ia[k])];
    const Value& vb = b[static_cast<size_t>(ib[k])];
    if (va.is_null() || vb.is_null()) return false;
    if (!(va == vb)) return false;
  }
  return true;
}

class Evaluator {
 public:
  /// Internally mutable so the root table can be moved out; every
  /// consumer treats the pointee as const.
  using TableRef = std::shared_ptr<MatTable>;

  Evaluator(const xml::DocTable& doc, const ExecOptions& options)
      : doc_(doc),
        clock_(options.limits),
        stats_(options.stats),
        params_(options.params) {}

  Result<TableRef> Eval(const Op* op) {
    auto it = memo_.find(op);
    if (it != memo_.end()) return it->second;  // shared, not deep-copied
    XQJG_RETURN_NOT_OK(clock_.CheckRows(0));
    Result<MatTable> result = EvalUncached(op);
    if (!result.ok()) return result.status();
    XQJG_RETURN_NOT_OK(
        clock_.CheckRows(static_cast<int64_t>(result.value().rows.size())));
    auto ref = std::make_shared<MatTable>(std::move(result).value());
    if (stats_) {
      stats_->tuples_materialized += static_cast<int64_t>(ref->rows.size());
    }
    memo_[op] = ref;
    return ref;
  }

  /// Releases the root's table without a deep copy when the memo holds the
  /// only other reference (the common case — the evaluator dies next).
  MatTable TakeRoot(const Op* root, TableRef ref) {
    memo_.erase(root);
    if (ref.use_count() == 1) return std::move(*ref);
    return *ref;
  }

 private:
  Result<MatTable> EvalUncached(const Op* op) {
    switch (op->kind) {
      case OpKind::kDocTable:
        return EvalDocTable();
      case OpKind::kLiteral: {
        MatTable t;
        t.schema = op->schema;
        t.rows = op->rows;
        return t;
      }
      case OpKind::kSerialize: {
        XQJG_ASSIGN_OR_RETURN(TableRef in, Eval(op->children[0].get()));
        const int pos_idx = in->ColumnIndex(op->order[0]);
        const int item_idx = in->ColumnIndex(op->col);
        if (pos_idx < 0 || item_idx < 0) {
          return Status::Internal("serialize columns missing");
        }
        MatTable t = *in;  // sorted copy of the shared input
        try {
          std::stable_sort(t.rows.begin(), t.rows.end(),
                           [&](const auto& a, const auto& b) {
                             clock_.TickThrow();
                             if (a[pos_idx].SortLess(b[pos_idx])) return true;
                             if (b[pos_idx].SortLess(a[pos_idx])) return false;
                             return a[item_idx].SortLess(b[item_idx]);
                           });
        } catch (const BudgetExhausted&) {
          return Status::Timeout(
              "execution exceeded wall-clock budget (DNF)");
        }
        return t;
      }
      case OpKind::kProject: {
        XQJG_ASSIGN_OR_RETURN(TableRef in, Eval(op->children[0].get()));
        std::vector<int> idx;
        for (const auto& [out, src] : op->proj) {
          (void)out;
          idx.push_back(in->ColumnIndex(src));
          if (idx.back() < 0) {
            return Status::Internal("projection source missing: " + src);
          }
        }
        MatTable t;
        t.schema = op->schema;
        t.rows.reserve(in->rows.size());
        for (const auto& row : in->rows) {
          std::vector<Value> out_row;
          out_row.reserve(idx.size());
          for (int i : idx) out_row.push_back(row[static_cast<size_t>(i)]);
          t.rows.push_back(std::move(out_row));
          XQJG_RETURN_NOT_OK(clock_.Tick());
        }
        return t;
      }
      case OpKind::kSelect: {
        XQJG_ASSIGN_OR_RETURN(TableRef in, Eval(op->children[0].get()));
        MatTable t;
        t.schema = op->schema;
        // Parameter markers resolve to their bound Values once per select
        // (the compiler only places them in comparison operands).
        const std::vector<Comparison>* conjuncts = &op->pred.conjuncts;
        std::vector<Comparison> resolved;
        if (params_) {
          resolved.reserve(op->pred.conjuncts.size());
          for (const auto& cmp : op->pred.conjuncts) {
            resolved.push_back(algebra::ResolveParams(cmp, params_));
          }
          conjuncts = &resolved;
        }
        for (const auto& row : in->rows) {
          bool pass = true;
          for (const auto& cmp : *conjuncts) {
            if (!EvalComparison(cmp, in->schema, row)) {
              pass = false;
              break;
            }
          }
          if (pass) t.rows.push_back(row);
          XQJG_RETURN_NOT_OK(clock_.Tick());
        }
        return t;
      }
      case OpKind::kJoin:
      case OpKind::kCross:
        return EvalJoin(op);
      case OpKind::kDistinct: {
        XQJG_ASSIGN_OR_RETURN(TableRef in, Eval(op->children[0].get()));
        MatTable t;
        t.schema = op->schema;
        std::vector<int> all(in->schema.size());
        std::iota(all.begin(), all.end(), 0);
        std::unordered_map<size_t, std::vector<size_t>> buckets;
        for (const auto& row : in->rows) {
          XQJG_RETURN_NOT_OK(clock_.Tick());
          size_t h = HashCols(row, all);
          auto& bucket = buckets[h];
          bool dup = false;
          for (size_t j : bucket) {
            bool eq = true;
            for (size_t k = 0; k < row.size(); ++k) {
              const Value& a = t.rows[j][k];
              const Value& b = row[k];
              if (a.is_null() != b.is_null() ||
                  (!a.is_null() && !(a == b))) {
                eq = false;
                break;
              }
            }
            if (eq) {
              dup = true;
              break;
            }
          }
          if (!dup) {
            bucket.push_back(t.rows.size());
            t.rows.push_back(row);
          }
        }
        return t;
      }
      case OpKind::kAttach: {
        XQJG_ASSIGN_OR_RETURN(TableRef in, Eval(op->children[0].get()));
        MatTable t;
        t.schema = op->schema;
        t.rows = in->rows;
        for (auto& row : t.rows) {
          row.push_back(op->val);
          XQJG_RETURN_NOT_OK(clock_.Tick());
        }
        return t;
      }
      case OpKind::kRowId: {
        XQJG_ASSIGN_OR_RETURN(TableRef in, Eval(op->children[0].get()));
        MatTable t;
        t.schema = op->schema;
        t.rows = in->rows;
        int64_t next = 1;
        for (auto& row : t.rows) {
          row.push_back(Value::Int(next++));
          XQJG_RETURN_NOT_OK(clock_.Tick());
        }
        return t;
      }
      case OpKind::kRank:
        return EvalRank(op);
    }
    return Status::Internal("unhandled operator in Evaluate");
  }

  Result<MatTable> EvalDocTable() {
    XQJG_RETURN_NOT_OK(clock_.CheckRows(doc_.row_count()));
    MatTable t = BuildDocRelation(doc_);
    XQJG_RETURN_NOT_OK(clock_.CheckDeadline());
    return t;
  }

  Result<MatTable> EvalJoin(const Op* op) {
    XQJG_ASSIGN_OR_RETURN(TableRef left, Eval(op->children[0].get()));
    XQJG_ASSIGN_OR_RETURN(TableRef right, Eval(op->children[1].get()));
    MatTable t;
    t.schema = op->schema;
    // Split the predicate into hashable equality conjuncts (plain col =
    // plain col across the two sides) and residual comparisons.
    std::vector<int> lkeys, rkeys;
    std::vector<Comparison> residual;
    if (op->kind == OpKind::kJoin) {
      for (const auto& cmp : op->pred.conjuncts) {
        if (cmp.IsColEq()) {
          int li = left->ColumnIndex(cmp.lhs.col);
          int ri = right->ColumnIndex(cmp.rhs.col);
          if (li < 0 && ri < 0) {
            li = left->ColumnIndex(cmp.rhs.col);
            ri = right->ColumnIndex(cmp.lhs.col);
          }
          if (li >= 0 && ri >= 0) {
            lkeys.push_back(li);
            rkeys.push_back(ri);
            continue;
          }
        }
        residual.push_back(params_ ? algebra::ResolveParams(cmp, params_)
                                   : cmp);
      }
    }
    auto emit = [&](const std::vector<Value>& l,
                    const std::vector<Value>& r) -> Status {
      std::vector<Value> row = l;
      row.insert(row.end(), r.begin(), r.end());
      bool pass = true;
      for (const auto& cmp : residual) {
        if (!EvalComparison(cmp, t.schema, row)) {
          pass = false;
          break;
        }
      }
      if (pass) {
        t.rows.push_back(std::move(row));
        if ((t.rows.size() & 0xFFF) == 0) {
          XQJG_RETURN_NOT_OK(
              clock_.CheckRows(static_cast<int64_t>(t.rows.size())));
        }
      }
      return Status::OK();
    };
    if (!lkeys.empty()) {
      // Hash join: build on the smaller side (right by convention here).
      // Rows with NULL in any key column are skipped outright: NULL keys
      // never join (Value::Compare treats NULL as incomparable).
      std::unordered_map<size_t, std::vector<size_t>> buckets;
      for (size_t j = 0; j < right->rows.size(); ++j) {
        XQJG_RETURN_NOT_OK(clock_.Tick());
        if (AnyKeyNull(right->rows[j], rkeys)) continue;
        buckets[HashCols(right->rows[j], rkeys)].push_back(j);
      }
      for (const auto& lrow : left->rows) {
        XQJG_RETURN_NOT_OK(clock_.Tick());
        if (AnyKeyNull(lrow, lkeys)) continue;
        auto it = buckets.find(HashCols(lrow, lkeys));
        if (it == buckets.end()) continue;
        for (size_t j : it->second) {
          if (EqualCols(lrow, lkeys, right->rows[j], rkeys)) {
            XQJG_RETURN_NOT_OK(emit(lrow, right->rows[j]));
          }
        }
      }
    } else {
      for (const auto& lrow : left->rows) {
        XQJG_RETURN_NOT_OK(clock_.Tick());
        for (const auto& rrow : right->rows) {
          XQJG_RETURN_NOT_OK(emit(lrow, rrow));
        }
      }
    }
    return t;
  }

  Result<MatTable> EvalRank(const Op* op) {
    XQJG_ASSIGN_OR_RETURN(TableRef in, Eval(op->children[0].get()));
    std::vector<int> order_idx;
    for (const auto& b : op->order) {
      order_idx.push_back(in->ColumnIndex(b));
      if (order_idx.back() < 0) {
        return Status::Internal("rank criterion missing: " + b);
      }
    }
    std::vector<size_t> perm(in->rows.size());
    std::iota(perm.begin(), perm.end(), 0);
    auto less = [&](size_t a, size_t b) {
      clock_.TickThrow();
      for (int i : order_idx) {
        const Value& va = in->rows[a][static_cast<size_t>(i)];
        const Value& vb = in->rows[b][static_cast<size_t>(i)];
        if (va.SortLess(vb)) return true;
        if (vb.SortLess(va)) return false;
      }
      return false;
    };
    std::vector<int64_t> ranks(in->rows.size(), 0);
    try {
      std::stable_sort(perm.begin(), perm.end(), less);
      // RANK() semantics: ties share the rank of their first row (1-based).
      for (size_t k = 0; k < perm.size(); ++k) {
        if (k > 0 && !less(perm[k - 1], perm[k]) &&
            !less(perm[k], perm[k - 1])) {
          ranks[perm[k]] = ranks[perm[k - 1]];
        } else {
          ranks[perm[k]] = static_cast<int64_t>(k) + 1;
        }
      }
    } catch (const BudgetExhausted&) {
      return Status::Timeout("execution exceeded wall-clock budget (DNF)");
    }
    MatTable t;
    t.schema = op->schema;
    t.rows = in->rows;
    for (size_t k = 0; k < t.rows.size(); ++k) {
      t.rows[k].push_back(Value::Int(ranks[k]));
      XQJG_RETURN_NOT_OK(clock_.Tick());
    }
    return t;
  }

  const xml::DocTable& doc_;
  BudgetClock clock_;
  ExecStats* stats_;
  const std::vector<Value>* params_;  ///< Execute-time bindings, not owned
  std::unordered_map<const Op*, TableRef> memo_;
};

}  // namespace

bool CompareValues(const Value& lhs, CmpOp op, const Value& rhs) {
  int c = lhs.Compare(rhs);
  if (c == Value::kNullCmp) return false;
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

bool EvalComparison(const Comparison& cmp,
                    const std::vector<std::string>& schema,
                    const std::vector<Value>& row) {
  Value lhs = EvalTerm(cmp.lhs, schema, row);
  Value rhs = EvalTerm(cmp.rhs, schema, row);
  return CompareValues(lhs, cmp.op, rhs);
}

Result<MatTable> Evaluate(const OpPtr& plan, const xml::DocTable& doc,
                          const ExecOptions& options) {
  Evaluator evaluator(doc, options);
  XQJG_ASSIGN_OR_RETURN(Evaluator::TableRef ref, evaluator.Eval(plan.get()));
  if (options.stats) {
    options.stats->rows_out = static_cast<int64_t>(ref->rows.size());
  }
  return evaluator.TakeRoot(plan.get(), std::move(ref));
}

Result<std::vector<int64_t>> EvaluateToSequence(const OpPtr& plan,
                                                const xml::DocTable& doc,
                                                const ExecOptions& options) {
  if (plan->kind != OpKind::kSerialize) {
    return Status::InvalidArgument("expected a serialize-rooted plan");
  }
  Evaluator evaluator(doc, options);
  XQJG_ASSIGN_OR_RETURN(Evaluator::TableRef result, evaluator.Eval(plan.get()));
  const int item_idx = result->ColumnIndex(plan->col);
  std::vector<int64_t> out;
  out.reserve(result->rows.size());
  // Exit extraction: every result row was already budget-admitted by the
  // evaluator's per-operator checks.  xqjg-lint: allow(no-budget-guard)
  for (const auto& row : result->rows) {
    const Value& v = row[static_cast<size_t>(item_idx)];
    if (v.is_null()) return Status::Internal("NULL item in result sequence");
    out.push_back(v.type() == ValueType::kInt
                      ? v.AsInt()
                      : static_cast<int64_t>(v.AsDouble()));
  }
  if (options.stats) {
    options.stats->rows_out = static_cast<int64_t>(out.size());
  }
  return out;
}

}  // namespace xqjg::engine

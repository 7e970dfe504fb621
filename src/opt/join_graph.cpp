#include "src/opt/join_graph.h"

#include <functional>
#include <map>

#include "src/common/str.h"

namespace xqjg::opt {

using algebra::CmpOp;
using algebra::Op;
using algebra::OpKind;
using algebra::OpPtr;
using algebra::Term;

std::string QualTerm::ToString() const {
  std::string out;
  if (alias >= 0) out = StrPrintf("d%d.%s", alias, col.c_str());
  if (alias2 >= 0) out += StrPrintf(" + d%d.%s", alias2, col2.c_str());
  algebra::AppendTermTail(&out, param, param_name, constant);
  return out.empty() ? "0" : out;
}

bool QualTerm::operator==(const QualTerm& other) const {
  const bool const_eq =
      constant.is_null() ? other.constant.is_null()
                         : (!other.constant.is_null() &&
                            constant.type() == other.constant.type() &&
                            constant == other.constant);
  return alias == other.alias && col == other.col && alias2 == other.alias2 &&
         col2 == other.col2 && param == other.param && const_eq;
}

bool JoinGraph::DistinctPayloadEqualsSortKey() const {
  std::vector<QualTerm> key = order_by;
  key.push_back(item);
  auto contains = [](const std::vector<QualTerm>& haystack,
                     const QualTerm& needle) {
    for (const QualTerm& t : haystack) {
      if (t == needle) return true;
    }
    return false;
  };
  for (const QualTerm& t : select_list) {
    if (!contains(key, t)) return false;
  }
  for (const QualTerm& t : key) {
    if (!contains(select_list, t)) return false;
  }
  return true;
}

QualComparison OrientTo(const QualComparison& p, int alias) {
  auto side_aliases = [](const QualTerm& t) {
    std::vector<int> out;
    if (t.alias >= 0) out.push_back(t.alias);
    if (t.alias2 >= 0) out.push_back(t.alias2);
    return out;
  };
  auto only = [&](const QualTerm& t) {
    for (int a : side_aliases(t)) {
      if (a != alias) return false;
    }
    return !side_aliases(t).empty();
  };
  if (only(p.lhs)) return p;
  if (only(p.rhs)) {
    return QualComparison{p.rhs, algebra::FlipCmpOp(p.op), p.lhs};
  }
  return p;
}

std::string SargColumn(const QualTerm& t, int alias) {
  if (t.alias != alias) return "";
  if (t.alias2 < 0) {
    // col (+ numeric constant) — the constant is compensated at probe
    // time (see AdjustProbeValue).
    if (!t.constant.is_null() && !t.constant.IsNumeric()) return "";
    return t.col;
  }
  if (t.alias2 == alias && !t.constant.is_null() && !t.constant.IsNumeric()) {
    return "";
  }
  if (t.alias2 == alias &&
      ((t.col == "pre" && t.col2 == "size") ||
       (t.col == "size" && t.col2 == "pre"))) {
    return "pss";
  }
  return "";
}

Value AdjustProbeValue(const Value& sarg_constant, Value v) {
  if (sarg_constant.is_null() || v.is_null()) return v;
  if (!v.IsNumeric() || !sarg_constant.IsNumeric()) return Value::Null();
  if (v.type() == ValueType::kInt && sarg_constant.type() == ValueType::kInt) {
    return Value::Int(v.AsInt() - sarg_constant.AsInt());
  }
  return Value::Double(v.AsDouble() - sarg_constant.AsDouble());
}

uint32_t QualComparison::AliasMask() const {
  uint32_t mask = 0;
  for (int a : {lhs.alias, lhs.alias2, rhs.alias, rhs.alias2}) {
    if (a >= 0 && a < 32) mask |= 1u << a;
  }
  return mask;
}

std::string QualComparison::ToString() const {
  return lhs.ToString() + " " + algebra::CmpOpToString(op) + " " +
         rhs.ToString();
}

std::string JoinGraph::ToString() const {
  std::string out = StrPrintf("join graph over %d doc instance(s)\n",
                              num_aliases);
  for (const auto& p : predicates) {
    out += "  " + p.ToString() + "\n";
  }
  out += distinct ? "  DISTINCT over:" : "  select:";
  for (const auto& t : select_list) {
    out += ' ';
    out += t.ToString();
  }
  out += "\n  order by:";
  for (const auto& t : order_by) {
    out += ' ';
    out += t.ToString();
  }
  out += "\n  item: ";
  out += item.ToString();
  out += '\n';
  return out;
}

namespace {

/// Marker for the tail rank's output column inside the flattener.
constexpr int kRankAlias = -2;

struct Flattener {
  int next_alias = 0;
  std::vector<QualComparison> preds;
  bool distinct = false;
  std::vector<QualTerm> distinct_payload;
  bool have_rank = false;
  std::string rank_col;
  std::vector<QualTerm> rank_order;

  using ColMap = std::map<std::string, QualTerm>;

  Result<QualTerm> MapTerm(const Term& term, const ColMap& colmap) {
    QualTerm out;
    out.constant = term.constant;
    out.param = term.param;
    out.param_name = term.param_name;
    auto add_col = [&](const std::string& c) -> Status {
      auto it = colmap.find(c);
      if (it == colmap.end()) {
        return Status::Internal("column " + c + " missing in flattening");
      }
      const QualTerm& src = it->second;
      if (src.alias == kRankAlias) {
        return Status::NotSupported(
            "rank output used inside the join graph");
      }
      // Fold src into out: out += src.
      if (src.alias >= 0) {
        if (out.alias < 0) {
          out.alias = src.alias;
          out.col = src.col;
        } else if (out.alias2 < 0) {
          out.alias2 = src.alias;
          out.col2 = src.col;
        } else {
          return Status::NotSupported("term with more than two columns");
        }
      }
      if (src.alias2 >= 0) {
        if (out.alias2 < 0) {
          out.alias2 = src.alias2;
          out.col2 = src.col2;
        } else {
          return Status::NotSupported("term with more than two columns");
        }
      }
      if (!src.constant.is_null()) {
        if (out.param >= 0) {
          // A parameter's value is unknown until Execute; folding another
          // constant into the same term cannot be compensated here.
          return Status::NotSupported("parameter arithmetic");
        }
        if (out.constant.is_null()) {
          out.constant = src.constant;
        } else if (out.constant.IsNumeric() && src.constant.IsNumeric()) {
          out.constant =
              Value::Int(out.constant.AsInt() + src.constant.AsInt());
        } else {
          return Status::NotSupported("non-numeric constant addition");
        }
      }
      return Status::OK();
    };
    if (!term.col.empty()) XQJG_RETURN_NOT_OK(add_col(term.col));
    if (!term.col2.empty()) XQJG_RETURN_NOT_OK(add_col(term.col2));
    return out;
  }

  Status MapPredicate(const algebra::Predicate& pred, const ColMap& colmap) {
    for (const auto& cmp : pred.conjuncts) {
      XQJG_ASSIGN_OR_RETURN(QualTerm lhs, MapTerm(cmp.lhs, colmap));
      XQJG_ASSIGN_OR_RETURN(QualTerm rhs, MapTerm(cmp.rhs, colmap));
      preds.push_back(QualComparison{std::move(lhs), cmp.op, std::move(rhs)});
    }
    return Status::OK();
  }

  Result<ColMap> Flatten(const Op* op) {
    switch (op->kind) {
      case OpKind::kDocTable: {
        const int alias = next_alias++;
        ColMap out;
        for (const auto& col : op->schema) {
          QualTerm t;
          t.alias = alias;
          t.col = col;
          out[col] = std::move(t);
        }
        return out;
      }
      case OpKind::kLiteral: {
        if (op->rows.size() != 1) {
          return Status::NotSupported(
              "non-singleton literal table in join graph");
        }
        ColMap out;
        for (size_t i = 0; i < op->schema.size(); ++i) {
          QualTerm t;
          t.constant = op->rows[0][i];
          out[op->schema[i]] = std::move(t);
        }
        return out;
      }
      case OpKind::kSelect: {
        XQJG_ASSIGN_OR_RETURN(ColMap cm, Flatten(op->children[0].get()));
        XQJG_RETURN_NOT_OK(MapPredicate(op->pred, cm));
        return cm;
      }
      case OpKind::kJoin:
      case OpKind::kCross: {
        XQJG_ASSIGN_OR_RETURN(ColMap left, Flatten(op->children[0].get()));
        XQJG_ASSIGN_OR_RETURN(ColMap right, Flatten(op->children[1].get()));
        left.insert(right.begin(), right.end());
        if (op->kind == OpKind::kJoin) {
          XQJG_RETURN_NOT_OK(MapPredicate(op->pred, left));
        }
        return left;
      }
      case OpKind::kProject: {
        XQJG_ASSIGN_OR_RETURN(ColMap cm, Flatten(op->children[0].get()));
        ColMap out;
        for (const auto& [o, in] : op->proj) {
          auto it = cm.find(in);
          if (it == cm.end()) {
            return Status::Internal("projection source missing: " + in);
          }
          out[o] = it->second;
        }
        return out;
      }
      case OpKind::kAttach: {
        XQJG_ASSIGN_OR_RETURN(ColMap cm, Flatten(op->children[0].get()));
        QualTerm t;
        t.constant = op->val;
        cm[op->col] = std::move(t);
        return cm;
      }
      case OpKind::kDistinct: {
        if (distinct) {
          return Status::NotSupported(
              "multiple duplicate eliminations outside the plan tail");
        }
        XQJG_ASSIGN_OR_RETURN(ColMap cm, Flatten(op->children[0].get()));
        distinct = true;
        for (const auto& col : op->children[0]->schema) {
          distinct_payload.push_back(cm.at(col));
        }
        return cm;
      }
      case OpKind::kRank: {
        if (have_rank) {
          return Status::NotSupported(
              "multiple rank operators outside the plan tail");
        }
        XQJG_ASSIGN_OR_RETURN(ColMap cm, Flatten(op->children[0].get()));
        have_rank = true;
        rank_col = op->col;
        for (const auto& b : op->order) {
          auto it = cm.find(b);
          if (it == cm.end()) {
            return Status::Internal("rank criterion missing: " + b);
          }
          if (it->second.alias == kRankAlias) {
            return Status::NotSupported("nested tail ranks");
          }
          rank_order.push_back(it->second);
        }
        QualTerm marker;
        marker.alias = kRankAlias;
        marker.col = op->col;
        cm[op->col] = std::move(marker);
        return cm;
      }
      default:
        return Status::NotSupported(
            std::string("operator not allowed in an isolated join graph: ") +
            algebra::OpKindToString(op->kind));
    }
  }
};

/// Merges doc aliases connected by `d_i.pre = d_j.pre`: pre is the key of
/// doc, so both aliases denote the same row (the compiler's context
/// re-fetch join). This reproduces the paper's alias count (Fig. 8: three
/// doc instances for Q1).
void UnifyKeyAliases(JoinGraph* jg) {
  std::vector<int> rep(static_cast<size_t>(jg->num_aliases));
  for (int i = 0; i < jg->num_aliases; ++i) rep[static_cast<size_t>(i)] = i;
  std::function<int(int)> find = [&](int a) {
    while (rep[static_cast<size_t>(a)] != a) a = rep[static_cast<size_t>(a)];
    return a;
  };
  for (const auto& p : jg->predicates) {
    if (p.op == CmpOp::kEq && p.lhs.IsSimpleCol() && p.rhs.IsSimpleCol() &&
        p.lhs.col == "pre" && p.rhs.col == "pre") {
      int a = find(p.lhs.alias), b = find(p.rhs.alias);
      if (a != b) rep[static_cast<size_t>(std::max(a, b))] = std::min(a, b);
    }
  }
  // Compact alias ids.
  std::vector<int> remap(static_cast<size_t>(jg->num_aliases), -1);
  int next = 0;
  for (int i = 0; i < jg->num_aliases; ++i) {
    int r = find(i);
    if (remap[static_cast<size_t>(r)] < 0) remap[static_cast<size_t>(r)] = next++;
    remap[static_cast<size_t>(i)] = remap[static_cast<size_t>(r)];
  }
  auto fix_term = [&](QualTerm* t) {
    if (t->alias >= 0) t->alias = remap[static_cast<size_t>(t->alias)];
    if (t->alias2 >= 0) t->alias2 = remap[static_cast<size_t>(t->alias2)];
  };
  std::vector<QualComparison> kept;
  std::vector<std::string> seen;
  for (auto& p : jg->predicates) {
    fix_term(&p.lhs);
    fix_term(&p.rhs);
    if (p.op == CmpOp::kEq && p.lhs.IsSimpleCol() && p.rhs.IsSimpleCol() &&
        p.lhs.col == "pre" && p.rhs.col == "pre" &&
        p.lhs.alias == p.rhs.alias) {
      continue;  // became a tautology through unification
    }
    std::string sig = p.ToString();
    if (std::find(seen.begin(), seen.end(), sig) != seen.end()) continue;
    seen.push_back(std::move(sig));
    kept.push_back(std::move(p));
  }
  jg->predicates = std::move(kept);
  for (auto& t : jg->select_list) fix_term(&t);
  for (auto& t : jg->order_by) fix_term(&t);
  fix_term(&jg->item);
  jg->num_aliases = next;
}

/// Under DISTINCT, an alias that feeds neither the select list nor the
/// ordering acts as a pure existence (semijoin) filter. Normalization's
/// predicate desugaring duplicates such filters (nested ifs re-derive the
/// same paths); two filter aliases with identical predicate signatures are
/// interchangeable, so one of them (and its predicates) can be dropped.
void MergeDuplicateSemijoinAliases(JoinGraph* jg) {
  if (!jg->distinct) return;
  // Field tests, not AliasMask(): extraction runs before the planner's
  // 31-alias limit is checked.
  auto uses = [](const QualTerm& t, int a) {
    return t.alias == a || t.alias2 == a;
  };
  auto mentions = [&](const QualComparison& p, int a) {
    return uses(p.lhs, a) || uses(p.rhs, a);
  };
  auto output_alias = [&](int a) {
    for (const auto& t : jg->select_list) {
      if (uses(t, a)) return true;
    }
    for (const auto& t : jg->order_by) {
      if (uses(t, a)) return true;
    }
    return uses(jg->item, a);
  };
  auto signature = [&](int a) {
    std::vector<std::string> sig;
    for (const auto& p : jg->predicates) {
      if (!mentions(p, a)) continue;
      QualComparison copy = p;
      auto mask = [&](QualTerm* t) {
        if (t->alias == a) t->alias = 9999;  // placeholder for "self"
        if (t->alias2 == a) t->alias2 = 9999;
      };
      mask(&copy.lhs);
      mask(&copy.rhs);
      sig.push_back(copy.ToString());
    }
    std::sort(sig.begin(), sig.end());
    return sig;
  };
  std::vector<bool> dropped(static_cast<size_t>(jg->num_aliases), false);
  for (int i = 0; i < jg->num_aliases; ++i) {
    if (dropped[static_cast<size_t>(i)] || output_alias(i)) continue;
    const auto sig_i = signature(i);
    for (int j = i + 1; j < jg->num_aliases; ++j) {
      if (dropped[static_cast<size_t>(j)] || output_alias(j)) continue;
      // No predicate may connect i and j directly.
      bool connected = false;
      for (const auto& p : jg->predicates) {
        if (mentions(p, i) && mentions(p, j)) connected = true;
      }
      if (connected) continue;
      if (signature(j) != sig_i) continue;
      dropped[static_cast<size_t>(j)] = true;
      std::vector<QualComparison> kept;
      for (auto& p : jg->predicates) {
        if (!mentions(p, j)) kept.push_back(std::move(p));
      }
      jg->predicates = std::move(kept);
    }
  }
  // Compact alias numbering.
  std::vector<int> remap(static_cast<size_t>(jg->num_aliases), -1);
  int next = 0;
  for (int a = 0; a < jg->num_aliases; ++a) {
    if (!dropped[static_cast<size_t>(a)]) remap[static_cast<size_t>(a)] = next++;
  }
  auto fix = [&](QualTerm* t) {
    if (t->alias >= 0) t->alias = remap[static_cast<size_t>(t->alias)];
    if (t->alias2 >= 0) t->alias2 = remap[static_cast<size_t>(t->alias2)];
  };
  for (auto& p : jg->predicates) {
    fix(&p.lhs);
    fix(&p.rhs);
  }
  for (auto& t : jg->select_list) fix(&t);
  for (auto& t : jg->order_by) fix(&t);
  fix(&jg->item);
  jg->num_aliases = next;
}

}  // namespace

Result<JoinGraph> ExtractJoinGraph(const OpPtr& isolated_root) {
  if (isolated_root->kind != OpKind::kSerialize) {
    return Status::InvalidArgument("expected a serialize-rooted plan");
  }
  Flattener fl;
  XQJG_ASSIGN_OR_RETURN(Flattener::ColMap cm,
                        fl.Flatten(isolated_root->children[0].get()));
  JoinGraph jg;
  jg.num_aliases = fl.next_alias;
  jg.predicates = std::move(fl.preds);
  jg.distinct = fl.distinct;

  auto item_it = cm.find(isolated_root->col);
  if (item_it == cm.end() || item_it->second.alias == kRankAlias ||
      !item_it->second.IsSimpleCol()) {
    return Status::NotSupported("result item column is not a plain column");
  }
  jg.item = item_it->second;

  const std::string& pos_col = isolated_root->order[0];
  auto pos_it = cm.find(pos_col);
  if (pos_it == cm.end()) {
    return Status::Internal("pos column missing after flattening");
  }
  if (pos_it->second.alias == kRankAlias) {
    jg.order_by = fl.rank_order;
  } else {
    jg.order_by = {pos_it->second};
  }
  // Constant order criteria are vacuous.
  std::vector<QualTerm> order;
  for (auto& t : jg.order_by) {
    if (!t.IsConst()) order.push_back(std::move(t));
  }
  jg.order_by = std::move(order);

  if (fl.distinct) {
    jg.select_list = std::move(fl.distinct_payload);
  } else {
    jg.select_list = jg.order_by;
    jg.select_list.push_back(jg.item);
  }
  // Trivial predicate elimination (constants on both sides). Parameter
  // markers are NOT folded — their values arrive at Execute time.
  std::vector<QualComparison> kept;
  for (auto& p : jg.predicates) {
    if (p.lhs.IsConst() && p.rhs.IsConst() && !p.lhs.IsParam() &&
        !p.rhs.IsParam()) {
      // Evaluated at plan time; keep only if not a tautology. A false
      // constant comparison empties the result — keep it so executors
      // notice.
      if (algebra::CompareValues(p.lhs.constant, p.op, p.rhs.constant)) {
        continue;
      }
    }
    kept.push_back(std::move(p));
  }
  jg.predicates = std::move(kept);
  UnifyKeyAliases(&jg);
  MergeDuplicateSemijoinAliases(&jg);
  return jg;
}

}  // namespace xqjg::opt

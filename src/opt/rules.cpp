#include "src/opt/rules.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <unordered_map>

#include "src/algebra/validate.h"

namespace xqjg::opt {

using algebra::CmpOp;
using algebra::Comparison;
using algebra::MakeAttach;
using algebra::MakeCross;
using algebra::MakeDistinct;
using algebra::MakeJoin;
using algebra::MakeProject;
using algebra::MakeRank;
using algebra::MakeSelect;
using algebra::Op;
using algebra::OpKind;
using algebra::OpPtr;
using algebra::Predicate;
using algebra::Term;

namespace {

bool SchemasDisjoint(const Op& a, const Op& b) {
  for (const auto& col : b.schema) {
    if (a.HasColumn(col)) return false;
  }
  return true;
}

/// Identity projection entries for `cols`.
std::vector<std::pair<std::string, std::string>> Identity(
    const std::vector<std::string>& cols) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(cols.size());
  for (const auto& c : cols) out.emplace_back(c, c);
  return out;
}

/// Canonical key of an equi-join predicate; used as a total order that
/// makes "may push below" antisymmetric between two equi-joins (rule (11)
/// would otherwise let two joins swap positions forever).
std::string JoinOrderKey(const Op* op) {
  std::vector<std::string> eqs;
  for (const auto& c : op->pred.conjuncts) {
    const std::string& a = c.lhs.col;
    const std::string& b = c.rhs.col;
    eqs.push_back(a < b ? a + "=" + b : b + "=" + a);
  }
  std::sort(eqs.begin(), eqs.end());
  std::string key;
  for (const auto& eq : eqs) key += (key.empty() ? "" : "&") + eq;
  return key;
}

/// The conjunction of `lhs[i] = rhs[i]`.
Predicate ColEqs(const std::vector<std::string>& lhs,
                 const std::vector<std::string>& rhs) {
  Predicate pred;
  for (size_t i = 0; i < lhs.size(); ++i) {
    pred.And(Term::Col(lhs[i]), CmpOp::kEq, Term::Col(rhs[i]));
  }
  return pred;
}

/// The source of projection output `out`, or null.
const std::string* SourceOf(const Op* proj, const std::string& out) {
  for (const auto& [o, in] : proj->proj) {
    if (o == out) return &in;
  }
  return nullptr;
}

}  // namespace

Rewriter::Rewriter(OpPtr root) : state_(std::move(root)) {
  const char* env = std::getenv("XQJG_VALIDATE_REWRITES");
  validate_rewrites_ = env && *env && std::string(env) != "0";
}

OpPtr Rewriter::Ptr(Op* node) const { return node->shared_from_this(); }

// ---------------------------------------------------------------------------
// Rule (1): #a(q) -> q  when a not needed upstream.
bool Rewriter::RuleRowIdDead(Op* node) {
  if (node->kind != OpKind::kRowId) return false;
  if (state_.Props(node).Needs(node->col)) return false;
  state_.Replace(node, node->children[0]);
  return true;
}

// Rule (2): rank_a(q) -> q  when a not needed upstream.
bool Rewriter::RuleRankDead(Op* node) {
  if (node->kind != OpKind::kRank) return false;
  if (state_.Props(node).Needs(node->col)) return false;
  state_.Replace(node, node->children[0]);
  return true;
}

// Rule (3): @a:c(q) -> q  when a not needed upstream.
bool Rewriter::RuleAttachDead(Op* node) {
  if (node->kind != OpKind::kAttach) return false;
  if (state_.Props(node).Needs(node->col)) return false;
  state_.Replace(node, node->children[0]);
  return true;
}

// Rule (4): narrow a projection to the columns needed upstream.
bool Rewriter::RuleProjectNarrow(Op* node) {
  if (node->kind != OpKind::kProject) return false;
  const NodeProps& p = state_.Props(node);
  std::vector<std::pair<std::string, std::string>> kept;
  for (const auto& entry : node->proj) {
    if (p.Needs(entry.first)) kept.push_back(entry);
  }
  if (kept.empty() || kept.size() == node->proj.size()) return false;
  node->proj = std::move(kept);
  state_.Touched(node);
  return true;
}

// Rule (5): q x <singleton literal> -> attach chain.
bool Rewriter::RuleCrossLiteral(Op* node) {
  if (node->kind != OpKind::kCross) return false;
  for (int side = 0; side < 2; ++side) {
    const OpPtr& lit = node->children[side];
    if (lit->kind != OpKind::kLiteral || lit->rows.size() != 1) continue;
    OpPtr result = node->children[1 - side];
    for (size_t i = 0; i < lit->schema.size(); ++i) {
      result = MakeAttach(result, lit->schema[i], lit->rows[0][i]);
    }
    state_.Replace(node, std::move(result));
    return true;
  }
  return false;
}

// Rule (6): remove a duplicate elimination that is dominated by another
// one upstream (set property true).
bool Rewriter::RuleDistinctDead(Op* node) {
  if (node->kind != OpKind::kDistinct) return false;
  if (!state_.Props(node).dedup_upstream) return false;
  state_.Replace(node, node->children[0]);
  return true;
}

// Rule (7): drop constant non-needed columns below a distinct.
bool Rewriter::RuleDistinctPruneConst(Op* node) {
  if (node->kind != OpKind::kDistinct) return false;
  const Op* child = node->children[0].get();
  const NodeProps& c = state_.Props(child);
  const NodeProps& p = state_.Props(node);
  std::vector<std::pair<std::string, std::string>> kept;
  for (const auto& col : child->schema) {
    if (c.IsConst(col) && !p.Needs(col)) continue;
    kept.emplace_back(col, col);
  }
  if (kept.empty() || kept.size() == child->schema.size()) return false;
  state_.SetChild(node, 0, MakeProject(node->children[0], std::move(kept)));
  return true;
}

// Rule (8): introduce the tail duplicate elimination above a join whose
// output is keyed within icols and not yet deduplicated upstream.
bool Rewriter::RuleIntroduceTailDistinct(Op* node) {
  if (node->kind != OpKind::kJoin) return false;
  const NodeProps& p = state_.Props(node);
  if (p.dedup_upstream) return false;
  if (p.icols.empty()) return false;
  if (!p.HasKeyWithinModuloEq(p.icols)) return false;
  // Build delta(pi_icols(node)) and splice it between node and its parents.
  const std::set<std::string> names = p.IcolNames();
  std::vector<std::string> cols(names.begin(), names.end());
  OpPtr narrowed = MakeProject(Ptr(node), Identity(cols));
  state_.Replace(node, MakeDistinct(std::move(narrowed)));
  return true;
}

// Rule (9b): pi_A(S) join_{x=y} pi_B(S) over the same keyed S collapses to
// a single merged projection of S. With several equalities x_i = y_i, the
// x_i and y_i must copy the same columns of S, and those columns must hold
// a key of S.
bool Rewriter::RuleMergeSelfJoin(Op* node) {
  if (!IsEquiJoin(*node)) return false;
  Op* left = node->children[0].get();
  Op* right = node->children[1].get();
  if (left->kind != OpKind::kProject || right->kind != OpKind::kProject) {
    return false;
  }
  if (left->children[0] != right->children[0]) return false;
  const Op* base = left->children[0].get();
  const NodeProps& bp = state_.Props(base);
  ColSet sources;
  for (const auto& c : node->pred.conjuncts) {
    const bool a_left = left->HasColumn(c.lhs.col);
    const std::string* lsrc = SourceOf(left, a_left ? c.lhs.col : c.rhs.col);
    const std::string* rsrc = SourceOf(right, a_left ? c.rhs.col : c.lhs.col);
    if (!lsrc || !rsrc || *lsrc != *rsrc) return false;
    sources.push_back(bp.names->Find(*lsrc));
  }
  Normalize(&sources);
  if (!bp.HasKeyAmong(sources)) return false;
  // Join on a key of the shared input: every row pairs with itself.
  std::vector<std::pair<std::string, std::string>> merged = left->proj;
  merged.insert(merged.end(), right->proj.begin(), right->proj.end());
  state_.Replace(node, MakeProject(left->children[0], std::move(merged)));
  return true;
}

// Rule (10): an equi-join whose both columns are the same constant is a
// Cartesian product.
bool Rewriter::RuleConstJoinToCross(Op* node) {
  if (node->kind != OpKind::kJoin) return false;
  if (node->pred.conjuncts.size() != 1 || !node->pred.conjuncts[0].IsColEq()) {
    return false;
  }
  const NodeProps& p = state_.Props(node);
  const std::string& a = node->pred.conjuncts[0].lhs.col;
  const std::string& b = node->pred.conjuncts[0].rhs.col;
  const Value* va = p.ConstOf(a);
  const Value* vb = p.ConstOf(b);
  if (!va || !vb || !(*va == *vb)) return false;
  state_.Replace(node, MakeCross(node->children[0], node->children[1]));
  return true;
}

// Rule (11) with the inline rule-(9a) degenerate check: push an equi-join
// below one of its child operators.
bool Rewriter::RulePushJoinDown(Op* node) {
  if (!IsEquiJoin(*node)) return false;
  const auto& conjuncts = node->pred.conjuncts;

  for (int side = 0; side < 2; ++side) {
    Op* box = node->children[side].get();
    const OpPtr& other = node->children[1 - side];
    switch (box->kind) {
      case OpKind::kProject:
      case OpKind::kSelect:
      case OpKind::kAttach:
      case OpKind::kRank:
      case OpKind::kJoin:
      case OpKind::kCross:
        break;
      default:
        continue;  // delta, rowid, leaves, serialize: not pushable
    }
    // Anti-ping-pong: between two equi-joins, only the one with the
    // smaller canonical predicate key may descend below the other.
    if (IsEquiJoin(*box) && !(JoinOrderKey(node) < JoinOrderKey(box))) {
      continue;
    }
    // Per equality: the other side's column, and the box side's column
    // mapped through the box.
    std::vector<std::string> ocols, mapped;
    bool mappable = true;
    for (const auto& c : conjuncts) {
      const bool a_in_box = box->HasColumn(c.lhs.col);
      const std::string& jcol = a_in_box ? c.lhs.col : c.rhs.col;
      ocols.push_back(a_in_box ? c.rhs.col : c.lhs.col);
      if (box->kind == OpKind::kProject) {
        const std::string* src = nullptr;
        for (const auto& [out, in] : box->proj) {
          if (out != jcol) continue;
          if (src) mappable = false;  // ambiguous
          src = &in;
        }
        if (!src) mappable = false;
        mapped.push_back(src ? *src : jcol);
      } else {
        // A join column created by the box cannot move below it.
        if ((box->kind == OpKind::kAttach || box->kind == OpKind::kRank) &&
            box->col == jcol) {
          mappable = false;
        }
        mapped.push_back(jcol);
      }
    }
    if (!mappable) continue;

    // Select the box input that provides every mapped column.
    size_t slot = 0;
    if (box->children.size() == 2) {
      slot = box->children[0]->HasColumn(mapped[0]) ? 0 : 1;
    }
    const OpPtr& inner = box->children[slot];
    bool provided = true;
    for (const auto& col : mapped) {
      if (!inner->HasColumn(col)) provided = false;
    }
    if (!provided) continue;

    // Rule (9a): the push would create inner join_{c=c} inner over the
    // same node on a key -> the join is the identity; drop it.
    bool degenerate = inner.get() == other.get() && mapped == ocols;
    if (degenerate) {
      const NodeProps& ip = state_.Props(inner.get());
      ColSet cols;
      for (const auto& col : mapped) cols.push_back(ip.names->Find(col));
      Normalize(&cols);
      degenerate = ip.HasKeyAmong(cols);
    }
    if (!degenerate && !SchemasDisjoint(*inner, *other)) continue;
    // q2 must not reach the box (would create a cycle). Checked last of
    // the cheap conditions: it walks q2's subplan.
    if (state_.Reaches(other.get(), box)) continue;

    // The box is rebuilt above the pushed join and must also expose
    // `other`'s columns (they flowed out of the original join). Check that
    // it can be before building anything: a refused push allocates no
    // operators.
    std::vector<std::pair<std::string, std::string>> proj;
    switch (box->kind) {
      case OpKind::kProject: {
        proj = box->proj;
        bool clash = false;
        for (const auto& col : other->schema) {
          const std::string* existing_src = nullptr;
          for (const auto& [out, in] : box->proj) {
            if (out == col) existing_src = &in;
          }
          if (existing_src) {
            // With the join collapsed (9a) rows pair with themselves, so
            // an identity forwarding of `col` is already present iff the
            // box maps col from col; anything else is a genuine clash.
            if (degenerate && *existing_src == col) continue;
            clash = true;
            break;
          }
          proj.emplace_back(col, col);
        }
        if (clash) continue;
        break;
      }
      case OpKind::kAttach:
      case OpKind::kRank:
        if (other->HasColumn(box->col)) continue;
        break;
      case OpKind::kJoin:
      case OpKind::kCross: {
        if (degenerate) {
          // Join dropped: box is unchanged semantically; but `other`'s
          // columns must still be provided — they are, because other ==
          // inner is below box already. Just replace node with box.
          state_.Replace(node, Ptr(box));
          return true;
        }
        // The pushed join outputs inner's and other's columns.
        const Op& sibling = *box->children[1 - slot];
        if (!SchemasDisjoint(sibling, *inner) ||
            !SchemasDisjoint(sibling, *other)) {
          continue;
        }
        break;
      }
      default:
        break;
    }

    const OpPtr pushed =
        degenerate ? inner : MakeJoin(inner, other, ColEqs(mapped, ocols));
    OpPtr rebuilt;
    switch (box->kind) {
      case OpKind::kProject:
        rebuilt = MakeProject(pushed, std::move(proj));
        break;
      case OpKind::kSelect:
        rebuilt = MakeSelect(pushed, box->pred);
        break;
      case OpKind::kAttach:
        rebuilt = MakeAttach(pushed, box->col, box->val);
        break;
      case OpKind::kRank:
        rebuilt = MakeRank(pushed, box->col, box->order);
        break;
      default: {
        const OpPtr& sibling = box->children[1 - slot];
        if (box->kind == OpKind::kJoin) {
          rebuilt = slot == 0 ? MakeJoin(pushed, sibling, box->pred)
                              : MakeJoin(sibling, pushed, box->pred);
        } else {
          rebuilt = slot == 0 ? MakeCross(pushed, sibling)
                              : MakeCross(sibling, pushed);
        }
        break;
      }
    }
    state_.Replace(node, std::move(rebuilt));
    return true;
  }
  return false;
}

// Rule (12): a rank over a single criterion is just a column copy (rank
// values are only ever used as ordering criteria).
bool Rewriter::RuleRankSingleCol(Op* node) {
  if (node->kind != OpKind::kRank) return false;
  if (node->order.size() != 1) return false;
  const OpPtr& child = node->children[0];
  auto proj = Identity(child->schema);
  proj.emplace_back(node->col, node->order[0]);
  state_.Replace(node, MakeProject(child, std::move(proj)));
  return true;
}

// Rule (13): constant columns cannot influence a rank order.
bool Rewriter::RuleRankDropConstOrder(Op* node) {
  if (node->kind != OpKind::kRank) return false;
  const NodeProps& c = state_.Props(node->children[0].get());
  std::vector<std::string> kept;
  for (const auto& b : node->order) {
    if (!c.IsConst(b)) kept.push_back(b);
  }
  if (kept.size() == node->order.size()) return false;
  if (kept.empty()) {
    // Rank over nothing: every row ranks 1.
    state_.Replace(node,
                   MakeAttach(node->children[0], node->col, Value::Int(1)));
    return true;
  }
  node->order = std::move(kept);
  state_.Touched(node);
  return true;
}

// Rule (14): pull a rank up through select / distinct / attach / rowid.
bool Rewriter::RulePullRankUnary(Op* node) {
  switch (node->kind) {
    case OpKind::kSelect:
    case OpKind::kDistinct:
    case OpKind::kAttach:
    case OpKind::kRowId:
      break;
    default:
      return false;
  }
  const OpPtr& rank = node->children[0];
  if (rank->kind != OpKind::kRank) return false;
  if (state_.NumParents(rank.get()) != 1) return false;
  if (node->kind == OpKind::kSelect &&
      node->pred.Cols().count(rank->col)) {
    return false;
  }
  if ((node->kind == OpKind::kAttach || node->kind == OpKind::kRowId) &&
      node->col == rank->col) {
    return false;
  }
  OpPtr inner;
  switch (node->kind) {
    case OpKind::kSelect:
      inner = MakeSelect(rank->children[0], node->pred);
      break;
    case OpKind::kDistinct:
      inner = MakeDistinct(rank->children[0]);
      break;
    case OpKind::kAttach:
      inner = MakeAttach(rank->children[0], node->col, node->val);
      break;
    default:
      inner = algebra::MakeRowId(rank->children[0], node->col);
      break;
  }
  state_.Replace(node, MakeRank(std::move(inner), rank->col, rank->order));
  return true;
}

// Rule (15): pull a rank up through a join / cross product (rank values
// stay order-correct; see DESIGN.md on rank semantics).
bool Rewriter::RulePullRankJoin(Op* node) {
  if (node->kind != OpKind::kJoin && node->kind != OpKind::kCross) {
    return false;
  }
  for (int side = 0; side < 2; ++side) {
    const OpPtr& rank = node->children[side];
    if (rank->kind != OpKind::kRank) continue;
    if (state_.NumParents(rank.get()) != 1) continue;
    if (node->kind == OpKind::kJoin && node->pred.Cols().count(rank->col)) {
      continue;
    }
    const OpPtr& other = node->children[1 - side];
    if (other->HasColumn(rank->col)) continue;
    OpPtr joined;
    if (node->kind == OpKind::kJoin) {
      joined = side == 0 ? MakeJoin(rank->children[0], other, node->pred)
                         : MakeJoin(other, rank->children[0], node->pred);
    } else {
      joined = side == 0 ? MakeCross(rank->children[0], other)
                         : MakeCross(other, rank->children[0]);
    }
    state_.Replace(node, MakeRank(std::move(joined), rank->col, rank->order));
    return true;
  }
  return false;
}

// Rule (16): pull a rank up through a projection; the projection moves
// below the rank and keeps the ordering criteria alive.
bool Rewriter::RulePullRankProject(Op* node) {
  if (node->kind != OpKind::kProject) return false;
  const OpPtr& rank = node->children[0];
  if (rank->kind != OpKind::kRank) return false;
  if (state_.NumParents(rank.get()) != 1) return false;
  // The rank column must be forwarded by exactly one entry.
  std::string out_name;
  int refs = 0;
  std::vector<std::pair<std::string, std::string>> below;
  for (const auto& [out, in] : node->proj) {
    if (in == rank->col) {
      out_name = out;
      ++refs;
    } else {
      below.emplace_back(out, in);
    }
  }
  if (refs != 1) return false;
  // Ensure every ordering criterion survives below; pick its (new) name.
  std::vector<std::string> new_order;
  for (const auto& b : rank->order) {
    const std::string* name = nullptr;
    for (const auto& [out, in] : below) {
      if (in == b) {
        name = &out;
        break;
      }
    }
    if (name) {
      new_order.push_back(*name);
    } else {
      // Add an identity pass-through; bail out on a name clash.
      bool clash = b == out_name;
      for (const auto& [out, in] : below) {
        if (out == b) clash = true;
      }
      if (clash) return false;
      below.emplace_back(b, b);
      new_order.push_back(b);
    }
  }
  OpPtr new_proj = MakeProject(rank->children[0], std::move(below));
  state_.Replace(node, MakeRank(std::move(new_proj), out_name,
                                std::move(new_order)));
  return true;
}

// Rule (17): splice the criteria of a nested rank into the outer rank.
bool Rewriter::RuleRankSplice(Op* node) {
  if (node->kind != OpKind::kRank) return false;
  const OpPtr& inner = node->children[0];
  if (inner->kind != OpKind::kRank) return false;
  auto it = std::find(node->order.begin(), node->order.end(), inner->col);
  if (it == node->order.end()) return false;
  std::vector<std::string> spliced(node->order.begin(), it);
  spliced.insert(spliced.end(), inner->order.begin(), inner->order.end());
  spliced.insert(spliced.end(), it + 1, node->order.end());
  // Drop duplicate criteria introduced by the splice (later occurrences
  // cannot influence the order).
  std::vector<std::string> dedup;
  for (const auto& c : spliced) {
    if (std::find(dedup.begin(), dedup.end(), c) == dedup.end()) {
      dedup.push_back(c);
    }
  }
  node->order = std::move(dedup);
  state_.Touched(node);
  return true;
}

// Rowid elimination: # attaches *arbitrary* unique row ids (Table I), so
// over an input with a candidate key the ids may simply be that key. This
// dissolves the FOR rule's #inner plumbing whenever the loop input is
// keyed. A singleton key (e.g. top-level loops, where iter is constant and
// fs:ddo guarantees item-uniqueness) is copied into the rowid column. A
// composite key (a nested loop's (iter, item)) replaces the column
// throughout: see ExpandRowId.
bool Rewriter::RuleRowIdFromKey(Op* node) {
  if (node->kind != OpKind::kRowId) return false;
  const NodeProps& c = state_.Props(node->children[0].get());
  const ColSet* narrowest = nullptr;
  for (const auto& k : c.keys) {
    if (k.size() == 1) {
      auto proj = Identity(node->children[0]->schema);
      proj.emplace_back(node->col, c.names->Name(k[0]));
      state_.Replace(node, MakeProject(node->children[0], std::move(proj)));
      return true;
    }
    if (!narrowest || k.size() < narrowest->size()) narrowest = &k;
  }
  if (!narrowest) return false;
  std::vector<std::string> key;
  for (ColId col : *narrowest) key.push_back(c.names->Name(col));
  return ExpandRowId(node, key);
}

// The rowid column `a` becomes the key columns k_1..k_m of the rowid's
// input. Above the rowid, every column derived from `a` (a projection's
// renamed copy `o` of it, and so on upwards) becomes m columns o, o_1, ..,
// o_{m-1}; each equality between two derived columns in a join or select
// becomes the conjunction of their component equalities, and a rank
// ordered by one orders by its components. Row ids are only ever compared
// for equality with copies of themselves, so this preserves every
// predicate; any other use leaves the rowid in place.
bool Rewriter::ExpandRowId(Op* node, const std::vector<std::string>& key) {
  using Components = std::map<std::string, std::vector<std::string>>;
  struct Edit {
    Op* op;
    std::vector<std::pair<std::string, std::string>> proj;
    Predicate pred;
    std::vector<std::string> order;
  };
  std::unordered_map<const Op*, Components> derived;
  derived[node] = {{node->col, key}};
  std::vector<Edit> edits;
  for (Op* op : state_.AncestorsBottomUp(node)) {
    Components in;
    for (const OpPtr& kid : op->children) {
      auto it = derived.find(kid.get());
      if (it != derived.end()) in.insert(it->second.begin(), it->second.end());
    }
    if (in.empty()) continue;
    auto uses = [&](const std::string& col) { return in.count(col) > 0; };
    Edit edit{op, {}, {}, {}};
    Components out = in;
    switch (op->kind) {
      case OpKind::kProject: {
        out.clear();
        std::set<std::string> names;
        for (const auto& [o, src] : op->proj) {
          auto it = in.find(src);
          if (it == in.end()) {
            edit.proj.emplace_back(o, src);
            names.insert(o);
            continue;
          }
          std::vector<std::string>& comps = out[o];
          for (size_t j = 0; j < it->second.size(); ++j) {
            comps.push_back(j == 0 ? o : o + "_" + std::to_string(j));
            edit.proj.emplace_back(comps.back(), it->second[j]);
            names.insert(comps.back());
          }
        }
        if (names.size() != edit.proj.size()) return false;  // name clash
        break;
      }
      case OpKind::kSelect:
      case OpKind::kJoin:
        for (const Comparison& c : op->pred.conjuncts) {
          const bool touches = uses(c.lhs.col) || uses(c.lhs.col2) ||
                               uses(c.rhs.col) || uses(c.rhs.col2);
          if (!touches) {
            edit.pred.conjuncts.push_back(c);
            continue;
          }
          if (!c.IsColEq() || !uses(c.lhs.col) || !uses(c.rhs.col)) {
            return false;
          }
          const Predicate eqs = ColEqs(in[c.lhs.col], in[c.rhs.col]);
          edit.pred.conjuncts.insert(edit.pred.conjuncts.end(),
                                     eqs.conjuncts.begin(),
                                     eqs.conjuncts.end());
        }
        break;
      case OpKind::kRank:
        for (const auto& b : op->order) {
          if (!uses(b)) {
            edit.order.push_back(b);
            continue;
          }
          edit.order.insert(edit.order.end(), in[b].begin(), in[b].end());
        }
        break;
      case OpKind::kAttach:
      case OpKind::kRowId:
      case OpKind::kDistinct:
      case OpKind::kCross:
        break;
      default:
        return false;  // serialize: a row id is never a result column
    }
    derived[op] = std::move(out);
    edits.push_back(std::move(edit));
  }
  for (Edit& edit : edits) {
    switch (edit.op->kind) {
      case OpKind::kProject:
        edit.op->proj = std::move(edit.proj);
        break;
      case OpKind::kSelect:
      case OpKind::kJoin:
        edit.op->pred = std::move(edit.pred);
        break;
      case OpKind::kRank:
        edit.op->order = std::move(edit.order);
        break;
      default:
        continue;
    }
    state_.Touched(edit.op);
  }
  state_.Replace(node, node->children[0]);
  return true;
}

// Housekeeping: compose two stacked projections.
bool Rewriter::RuleProjectProject(Op* node) {
  if (node->kind != OpKind::kProject) return false;
  const OpPtr& inner = node->children[0];
  if (inner->kind != OpKind::kProject) return false;
  std::vector<std::pair<std::string, std::string>> composed;
  for (const auto& [out, mid] : node->proj) {
    const std::string* src = nullptr;
    for (const auto& [iout, iin] : inner->proj) {
      if (iout == mid) {
        src = &iin;
        break;
      }
    }
    if (!src) return false;  // cannot happen on well-formed plans
    composed.emplace_back(out, *src);
  }
  state_.Replace(node, MakeProject(inner->children[0], std::move(composed)));
  return true;
}

// Housekeeping: remove an identity projection.
bool Rewriter::RuleProjectIdentity(Op* node) {
  if (node->kind != OpKind::kProject) return false;
  const OpPtr& child = node->children[0];
  if (node->proj.size() != child->schema.size()) return false;
  for (const auto& [out, in] : node->proj) {
    if (out != in) return false;
  }
  state_.Replace(node, child);
  return true;
}

// ---------------------------------------------------------------------------

bool Rewriter::StepOnce(Phase phase) {
  using RuleFn = bool (Rewriter::*)(Op*);
  struct Entry {
    const char* name;
    RuleFn fn;
  };
  static const Entry kRankRules[] = {
      {"hk-pipi", &Rewriter::RuleProjectProject},
      {"hk-piid", &Rewriter::RuleProjectIdentity},
      {"r1-rowid-dead", &Rewriter::RuleRowIdDead},
      {"r2-rank-dead", &Rewriter::RuleRankDead},
      {"r3-attach-dead", &Rewriter::RuleAttachDead},
      {"r4-pi-narrow", &Rewriter::RuleProjectNarrow},
      {"r5-cross-literal", &Rewriter::RuleCrossLiteral},
      {"r13-rank-const", &Rewriter::RuleRankDropConstOrder},
      {"r12-rank-single", &Rewriter::RuleRankSingleCol},
      {"r17-rank-splice", &Rewriter::RuleRankSplice},
      {"r16-rank-pi", &Rewriter::RulePullRankProject},
      {"r14-rank-unary", &Rewriter::RulePullRankUnary},
      {"r15-rank-join", &Rewriter::RulePullRankJoin},
  };
  static const Entry kJoinRules[] = {
      {"hk-pipi", &Rewriter::RuleProjectProject},
      {"hk-piid", &Rewriter::RuleProjectIdentity},
      {"r1-rowid-dead", &Rewriter::RuleRowIdDead},
      {"r2-rank-dead", &Rewriter::RuleRankDead},
      {"r3-attach-dead", &Rewriter::RuleAttachDead},
      {"r4-pi-narrow", &Rewriter::RuleProjectNarrow},
      {"r5-cross-literal", &Rewriter::RuleCrossLiteral},
      {"r13-rank-const", &Rewriter::RuleRankDropConstOrder},
      {"r12-rank-single", &Rewriter::RuleRankSingleCol},
      {"r6-distinct-dead", &Rewriter::RuleDistinctDead},
      {"r7-distinct-prune", &Rewriter::RuleDistinctPruneConst},
      {"r10-const-join-cross", &Rewriter::RuleConstJoinToCross},
      {"rx-rowid-key", &Rewriter::RuleRowIdFromKey},
      {"r9b-merge-selfjoin", &Rewriter::RuleMergeSelfJoin},
      {"r8-tail-distinct", &Rewriter::RuleIntroduceTailDistinct},
      {"r11-push-join", &Rewriter::RulePushJoinDown},
  };
  const Entry* rules = phase == Phase::kRank ? kRankRules : kJoinRules;
  const size_t n_rules = phase == Phase::kRank
                             ? sizeof(kRankRules) / sizeof(Entry)
                             : sizeof(kJoinRules) / sizeof(Entry);
  // The first operator in topological order on which some rule fires, as
  // a restart from the root would find it; operators that matched nothing
  // since their inputs last changed are skipped (see rewrite_state.h).
  const char* fired = nullptr;
  bool stale = false;
  const size_t lane = phase == Phase::kRank ? 0 : 1;
  state_.Walk(lane, validate_rewrites_, &stale, [&](Op* op) {
    for (size_t i = 0; i < n_rules; ++i) {
      if ((this->*rules[i].fn)(op)) {
        fired = rules[i].name;
        return true;
      }
    }
    return false;
  });
  if (!fired) return false;
  ++counts_[fired];
  state_.Settle();
  if (validate_rewrites_) {
    const std::string stage = std::string("rewrite:") + fired;
    if (stale) {
      algebra::ValidationError err;
      err.stage = stage;
      err.invariant = "incremental";
      err.detail =
          "the rule fired on an operator marked as matching no rule, so "
          "the skipping walk would have fired a different one";
      validation_status_ = err.ToStatus();
      return false;
    }
    // Mid-rewrite plans are fragments of a larger pipeline: the
    // serialize root is there, but parameter declarations are out of
    // scope, so the slot upper bound is not checked here.
    algebra::ValidateOptions vopts;
    vopts.num_params = algebra::kParamsUnknown;
    validation_status_ = algebra::Validate(state_.root(), stage, vopts);
    if (validation_status_.ok()) {
      validation_status_ = state_.CheckAgainstScratch(stage);
    }
    // Stop the phase on the first broken plan; RunPhase surfaces the
    // diagnostic (which names the rule that broke it).
    if (!validation_status_.ok()) return false;
  }
  return true;
}

Status Rewriter::RunPhase(Phase phase) {
  while (StepOnce(phase)) {
    if (--budget_ <= 0) {
      // Every rule is individually semantics-preserving, so an exhausted
      // budget yields a valid (just less optimized) plan. Record and stop.
      ++counts_["budget-exhausted"];
      return Status::OK();
    }
  }
  return validation_status_;
}

Status Rewriter::RunRankPhase() { return RunPhase(Phase::kRank); }
Status Rewriter::RunJoinPhase() { return RunPhase(Phase::kJoin); }

Status Rewriter::Run() {
  XQJG_RETURN_NOT_OK(RunRankPhase());
  XQJG_RETURN_NOT_OK(RunJoinPhase());
  // The join phase can re-enable rank simplifications (e.g. a rank freed
  // by join removal); do a final pass of each until a joint fixpoint.
  for (int round = 0; round < 8; ++round) {
    int before = budget_;
    XQJG_RETURN_NOT_OK(RunRankPhase());
    XQJG_RETURN_NOT_OK(RunJoinPhase());
    if (budget_ == before) break;
  }
  return Status::OK();
}

Result<OpPtr> IsolateJoinGraph(OpPtr root) {
  Rewriter rewriter(std::move(root));
  XQJG_RETURN_NOT_OK(rewriter.Run());
  return rewriter.root();
}

}  // namespace xqjg::opt

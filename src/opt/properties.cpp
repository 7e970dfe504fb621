#include "src/opt/properties.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace xqjg::opt {

using algebra::Op;
using algebra::OpKind;
using algebra::OpPtr;

namespace {

bool Contains(const ColSet& set, ColId col) {
  return std::binary_search(set.begin(), set.end(), col);
}

void InsertSorted(ColSet* set, ColId col) {
  auto it = std::lower_bound(set->begin(), set->end(), col);
  if (it == set->end() || *it != col) set->insert(it, col);
}

template <typename T>
const T* FindSorted(const std::vector<std::pair<ColId, T>>& pairs,
                    ColId col) {
  auto it = std::lower_bound(
      pairs.begin(), pairs.end(), col,
      [](const std::pair<ColId, T>& e, ColId c) { return e.first < c; });
  return it != pairs.end() && it->first == col ? &it->second : nullptr;
}

template <typename T>
void SortByCol(std::vector<std::pair<ColId, T>>* pairs) {
  std::sort(pairs->begin(), pairs->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

/// Merges two column-sorted pair lists over disjoint columns.
template <typename T>
std::vector<std::pair<ColId, T>> MergeByCol(
    const std::vector<std::pair<ColId, T>>& a,
    const std::vector<std::pair<ColId, T>>& b) {
  std::vector<std::pair<ColId, T>> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out),
             [](const auto& x, const auto& y) { return x.first < y.first; });
  return out;
}

ColSet ToIds(const ColumnIds* names, const std::set<std::string>& cols) {
  ColSet out;
  for (const auto& name : cols) {
    const ColId id = names->Find(name);
    if (id != kNoCol) out.push_back(id);
  }
  Normalize(&out);
  return out;
}

/// Appends the columns `pred` references, interned.
void AddPredCols(const algebra::Predicate& pred, ColumnIds* ids,
                 ColSet* out) {
  for (const auto& c : pred.conjuncts) {
    for (const algebra::Term* term : {&c.lhs, &c.rhs}) {
      if (!term->col.empty()) out->push_back(ids->Intern(term->col));
      if (!term->col2.empty()) out->push_back(ids->Intern(term->col2));
    }
  }
}

/// The (lhs, rhs) column pairs of an equi-join (every conjunct a column
/// equality); empty for any other operator.
std::vector<std::pair<ColId, ColId>> EquiPairs(const Op& op, ColumnIds* ids) {
  std::vector<std::pair<ColId, ColId>> pairs;
  if (!IsEquiJoin(op)) return pairs;
  for (const auto& c : op.pred.conjuncts) {
    pairs.emplace_back(ids->Intern(c.lhs.col), ids->Intern(c.rhs.col));
  }
  return pairs;
}

/// Inserts `key` into `keys`, keeping only minimal keys and respecting the
/// size caps. Columns known to be constant contribute nothing to a key and
/// are stripped first (e.g. the top-level loop's iter = 1), which exposes
/// singleton keys the rowid-elimination rule needs.
void AddKey(std::vector<ColSet>* keys, ColSet key,
            const std::vector<std::pair<ColId, Value>>* consts = nullptr) {
  if (consts) {
    for (auto it = key.begin(); it != key.end();) {
      if (FindSorted(*consts, *it) && key.size() > 1) {
        it = key.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (key.empty() || key.size() > kMaxKeyWidth) return;
  for (const auto& existing : *keys) {
    if (std::includes(key.begin(), key.end(), existing.begin(),
                      existing.end())) {
      return;  // superset of an existing key: redundant
    }
  }
  // Drop existing keys that are supersets of the new one.
  keys->erase(std::remove_if(keys->begin(), keys->end(),
                             [&](const ColSet& k) {
                               return std::includes(k.begin(), k.end(),
                                                    key.begin(), key.end());
                             }),
              keys->end());
  if (keys->size() < kMaxKeys) keys->push_back(std::move(key));
}

// ---------------- bottom-up: eq_class, const and key (Tables III, IV) -----

void InferEqClasses(const Op& op, const NodeProps* const* kids,
                    ColumnIds* ids, NodeProps* p) {
  auto& eq = p->eq_class;
  switch (op.kind) {
    case OpKind::kDocTable:
    case OpKind::kLiteral:
      for (ColId col : p->cols) eq.emplace_back(col, col);
      break;
    case OpKind::kProject: {
      // Outputs copying one input class form one class, named by the
      // least of those outputs.
      std::vector<std::pair<ColId, ColId>> least;  // input class -> output
      std::vector<std::pair<ColId, ColId>> src_of;  // output -> input class
      for (const auto& [o, in] : p->proj) {
        const ColId src = kids[0]->EqClassOf(in);
        src_of.emplace_back(o, src);
        if (src == kNoCol) continue;
        auto it = std::find_if(least.begin(), least.end(),
                               [&](const auto& e) { return e.first == src; });
        if (it == least.end()) {
          least.emplace_back(src, o);
        } else {
          it->second = std::min(it->second, o);
        }
      }
      for (const auto& [o, src] : src_of) {
        if (src == kNoCol) {
          eq.emplace_back(o, o);
          continue;
        }
        auto it = std::find_if(least.begin(), least.end(),
                               [&](const auto& e) { return e.first == src; });
        eq.emplace_back(o, it->second);
      }
      SortByCol(&eq);
      break;
    }
    case OpKind::kJoin:
    case OpKind::kCross: {
      eq = MergeByCol(kids[0]->eq_class, kids[1]->eq_class);
      for (const auto& [a, b] : EquiPairs(op, ids)) {
        const ColId ca = p->EqClassOf(a);
        const ColId cb = p->EqClassOf(b);
        if (ca != kNoCol && cb != kNoCol) {
          const ColId to = std::min(ca, cb), from = std::max(ca, cb);
          for (auto& [col, cls] : eq) {
            if (cls == from) cls = to;
          }
        }
      }
      break;
    }
    case OpKind::kAttach:
    case OpKind::kRowId:
    case OpKind::kRank: {
      eq = kids[0]->eq_class;
      const ColId col = ids->Intern(op.col);
      eq.emplace_back(col, col);
      SortByCol(&eq);
      break;
    }
    default:
      eq = kids[0]->eq_class;
      break;
  }
}

}  // namespace

void Normalize(ColSet* cols) {
  std::sort(cols->begin(), cols->end());
  cols->erase(std::unique(cols->begin(), cols->end()), cols->end());
}

// ---------------- ColumnIds ------------------------------------------------

ColumnIds::ColumnIds(const OpPtr& root) {
  std::set<std::string> all;
  for (const Op* op : algebra::BottomUpOrder(root)) {
    all.insert(op->schema.begin(), op->schema.end());
    for (const auto& [out, in] : op->proj) {
      all.insert(out);
      all.insert(in);
    }
    if (!op->col.empty()) all.insert(op->col);
    all.insert(op->order.begin(), op->order.end());
    const std::set<std::string> pred_cols = op->pred.Cols();
    all.insert(pred_cols.begin(), pred_cols.end());
  }
  for (const auto& name : all) Intern(name);
}

ColId ColumnIds::Intern(const std::string& name) {
  auto [it, added] = ids_.emplace(name, static_cast<ColId>(names_.size()));
  if (added) names_.push_back(name);
  return it->second;
}

ColId ColumnIds::Find(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoCol : it->second;
}

// ---------------- NodeProps ------------------------------------------------

bool NodeProps::Needs(ColId col) const { return Contains(icols, col); }

const Value* NodeProps::ConstOf(ColId col) const {
  return FindSorted(consts, col);
}

ColId NodeProps::EqClassOf(ColId col) const {
  const ColId* cls = FindSorted(eq_class, col);
  return cls ? *cls : kNoCol;
}

bool NodeProps::HasSingletonKey(ColId col) const {
  for (const auto& key : keys) {
    if (key.size() == 1 && key[0] == col) return true;
  }
  return false;
}

bool NodeProps::HasKeyAmong(const ColSet& within) const {
  for (const auto& key : keys) {
    if (std::includes(within.begin(), within.end(), key.begin(), key.end())) {
      return true;
    }
  }
  return false;
}

bool NodeProps::HasKeyWithinModuloEq(const ColSet& within) const {
  for (const auto& key : keys) {
    bool all = true;
    for (ColId kcol : key) {
      if (Contains(within, kcol)) continue;
      const ColId cls = EqClassOf(kcol);
      bool represented = false;
      if (cls != kNoCol) {
        for (ColId c : within) {
          if (EqClassOf(c) == cls) {
            represented = true;
            break;
          }
        }
      }
      if (!represented) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

bool NodeProps::Needs(const std::string& col) const {
  return Needs(names->Find(col));
}

const Value* NodeProps::ConstOf(const std::string& col) const {
  return ConstOf(names->Find(col));
}

int NodeProps::EqClassOf(const std::string& col) const {
  const ColId cls = EqClassOf(names->Find(col));
  return cls == kNoCol ? -1 : static_cast<int>(cls);
}

bool NodeProps::HasSingletonKey(const std::string& col) const {
  return HasSingletonKey(names->Find(col));
}

bool NodeProps::HasKeyWithin(const std::set<std::string>& within) const {
  return HasKeyAmong(ToIds(names, within));
}

std::set<std::string> NodeProps::IcolNames() const {
  std::set<std::string> out;
  for (ColId col : icols) out.insert(names->Name(col));
  return out;
}

std::vector<std::set<std::string>> NodeProps::KeyNames() const {
  std::vector<std::set<std::string>> out;
  for (const auto& key : keys) {
    std::set<std::string>& names_of_key = out.emplace_back();
    for (ColId col : key) names_of_key.insert(names->Name(col));
  }
  return out;
}

// ---------------- per-node inference ----------------------------------------

void InferUp(const Op& op, const NodeProps* const* kids, ColumnIds* ids,
             NodeProps* p) {
  p->names = ids;
  p->proj.clear();
  for (const auto& [out, in] : op.proj) {
    p->proj.emplace_back(ids->Intern(out), ids->Intern(in));
  }
  p->cols.clear();
  switch (op.kind) {
    case OpKind::kSerialize:
    case OpKind::kSelect:
    case OpKind::kDistinct:
      p->cols = kids[0]->cols;
      break;
    case OpKind::kJoin:
    case OpKind::kCross:
      std::set_union(kids[0]->cols.begin(), kids[0]->cols.end(),
                     kids[1]->cols.begin(), kids[1]->cols.end(),
                     std::back_inserter(p->cols));
      break;
    case OpKind::kAttach:
    case OpKind::kRowId:
    case OpKind::kRank:
      p->cols = kids[0]->cols;
      InsertSorted(&p->cols, ids->Intern(op.col));
      break;
    default:
      for (const auto& name : op.schema) p->cols.push_back(ids->Intern(name));
      Normalize(&p->cols);
      break;
  }
  p->consts.clear();
  p->keys.clear();
  p->eq_class.clear();
  InferEqClasses(op, kids, ids, p);
  switch (op.kind) {
    case OpKind::kSerialize:
    case OpKind::kDistinct:
      p->consts = kids[0]->consts;
      p->keys = kids[0]->keys;
      if (op.kind == OpKind::kDistinct) AddKey(&p->keys, p->cols, &p->consts);
      break;
    case OpKind::kProject: {
      const NodeProps& c = *kids[0];
      for (const auto& [out, in] : p->proj) {
        if (const Value* v = c.ConstOf(in)) p->consts.emplace_back(out, *v);
      }
      SortByCol(&p->consts);
      for (const auto& key : c.keys) {
        // Rename keys fully contained in the projection's sources. A
        // source duplicated into several outputs yields one candidate
        // key per output choice (the copies hold equal values).
        std::vector<ColSet> renamed = {{}};
        bool covered = true;
        for (ColId kcol : key) {
          std::vector<ColId> outs;
          for (const auto& [out, in] : p->proj) {
            if (in == kcol) outs.push_back(out);
          }
          if (outs.empty()) {
            covered = false;
            break;
          }
          std::vector<ColSet> expanded;
          for (const auto& base : renamed) {
            for (ColId out : outs) {
              if (expanded.size() >= 8) break;
              ColSet next = base;
              InsertSorted(&next, out);
              expanded.push_back(std::move(next));
            }
          }
          renamed = std::move(expanded);
        }
        if (covered) {
          for (auto& candidate : renamed) {
            AddKey(&p->keys, std::move(candidate), &p->consts);
          }
        }
      }
      break;
    }
    case OpKind::kSelect:
      p->consts = kids[0]->consts;
      p->keys = kids[0]->keys;
      break;
    case OpKind::kJoin:
    case OpKind::kCross: {
      const NodeProps& l = *kids[0];
      const NodeProps& r = *kids[1];
      p->consts = MergeByCol(l.consts, r.consts);
      // Each pair oriented (left column, right column).
      std::vector<std::pair<ColId, ColId>> pairs = EquiPairs(op, ids);
      ColSet lcols, rcols;
      for (auto& [a, b] : pairs) {
        if (!Contains(l.cols, a)) std::swap(a, b);
        lcols.push_back(a);
        rcols.push_back(b);
      }
      Normalize(&lcols);
      Normalize(&rcols);
      // Table IV, equi-join: if the right join columns determine a key of
      // the right input, every left key survives (and vice versa).
      bool equi_handled = false;
      if (!pairs.empty() && r.HasKeyWithinModuloEq(rcols)) {
        for (const auto& k : l.keys) AddKey(&p->keys, k, &p->consts);
        equi_handled = true;
      }
      if (!pairs.empty() && l.HasKeyWithinModuloEq(lcols)) {
        for (const auto& k : r.keys) AddKey(&p->keys, k, &p->consts);
        equi_handled = true;
      }
      if (!equi_handled) {
        for (const auto& k1 : l.keys) {
          for (const auto& k2 : r.keys) {
            ColSet combined;
            std::set_union(k1.begin(), k1.end(), k2.begin(), k2.end(),
                           std::back_inserter(combined));
            AddKey(&p->keys, std::move(combined), &p->consts);
          }
        }
      }
      // For an equi-join a = b, every output row satisfies a = b, so a
      // and b are interchangeable inside candidate keys.
      for (const auto& [a, b] : pairs) {
        const std::vector<ColSet> snapshot = p->keys;
        for (const auto& k : snapshot) {
          for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
            if (!Contains(k, from)) continue;
            ColSet swapped = k;
            swapped.erase(std::lower_bound(swapped.begin(), swapped.end(),
                                           from));
            InsertSorted(&swapped, to);
            AddKey(&p->keys, std::move(swapped), &p->consts);
          }
        }
      }
      break;
    }
    case OpKind::kAttach: {
      const ColId col = ids->Intern(op.col);
      p->consts = kids[0]->consts;
      auto it = std::lower_bound(
          p->consts.begin(), p->consts.end(), col,
          [](const auto& e, ColId c) { return e.first < c; });
      if (it != p->consts.end() && it->first == col) {
        it->second = op.val;
      } else {
        p->consts.emplace(it, col, op.val);
      }
      p->keys = kids[0]->keys;
      break;
    }
    case OpKind::kRowId:
      p->consts = kids[0]->consts;
      p->keys = kids[0]->keys;
      AddKey(&p->keys, {ids->Intern(op.col)}, &p->consts);
      break;
    case OpKind::kRank: {
      const NodeProps& c = *kids[0];
      p->consts = c.consts;
      p->keys = c.keys;
      ColSet order;
      for (const auto& b : op.order) order.push_back(ids->Intern(b));
      Normalize(&order);
      // Table IV ϱ: rank col + (key minus order cols) is a key whenever
      // the key overlapped the ordering criteria.
      for (const auto& k : c.keys) {
        bool overlaps = false;
        for (ColId b : order) {
          if (Contains(k, b)) overlaps = true;
        }
        if (!overlaps) continue;
        ColSet nk;
        std::set_difference(k.begin(), k.end(), order.begin(), order.end(),
                            std::back_inserter(nk));
        InsertSorted(&nk, ids->Intern(op.col));
        AddKey(&p->keys, std::move(nk), &p->consts);
      }
      break;
    }
    case OpKind::kDocTable:
      AddKey(&p->keys, {ids->Intern("pre")});
      break;
    case OpKind::kLiteral:
      if (op.rows.size() == 1) {
        for (size_t i = 0; i < op.schema.size(); ++i) {
          p->consts.emplace_back(ids->Intern(op.schema[i]), op.rows[0][i]);
        }
        SortByCol(&p->consts);
      }
      if (op.rows.size() <= 1) {
        for (const auto& col : op.schema) {
          AddKey(&p->keys, {ids->Intern(col)}, &p->consts);
        }
      }
      break;
  }
}

// ---------------- top-down: icols and set (Tables II, V) ------------------

void SeedRoot(const Op& root, ColumnIds* ids, ColSet* icols, bool* set) {
  if (root.kind != OpKind::kSerialize) return;
  icols->push_back(ids->Intern(root.order[0]));
  icols->push_back(ids->Intern(root.col));
  Normalize(icols);
  *set = false;
}

void AddDemand(const Op& parent, const NodeProps& pp,
               const ColSet& child_cols, ColumnIds* ids, ColSet* icols,
               bool* set) {
  auto add_pred_cols = [&](bool only_child_cols) {
    ColSet pred_cols;
    AddPredCols(parent.pred, ids, &pred_cols);
    for (ColId col : pred_cols) {
      if (!only_child_cols || Contains(child_cols, col)) icols->push_back(col);
    }
  };
  auto add_icols_except = [&](const std::string& name) {
    const ColId skip = ids->Intern(name);
    for (ColId col : pp.icols) {
      if (col != skip) icols->push_back(col);
    }
  };
  bool value = pp.dedup_upstream;
  switch (parent.kind) {
    case OpKind::kSerialize:
      icols->push_back(ids->Intern(parent.order[0]));
      icols->push_back(ids->Intern(parent.col));
      value = false;
      break;
    case OpKind::kProject:
      for (const auto& [out, in] : pp.proj) {
        if (pp.Needs(out)) icols->push_back(in);
      }
      break;
    case OpKind::kSelect:
      icols->insert(icols->end(), pp.icols.begin(), pp.icols.end());
      add_pred_cols(false);
      break;
    case OpKind::kJoin:
    case OpKind::kCross:
      for (ColId col : pp.icols) {
        if (Contains(child_cols, col)) icols->push_back(col);
      }
      if (parent.kind == OpKind::kJoin) add_pred_cols(true);
      break;
    case OpKind::kDistinct:
      icols->insert(icols->end(), pp.icols.begin(), pp.icols.end());
      value = true;
      break;
    case OpKind::kAttach:
    case OpKind::kRowId:
      add_icols_except(parent.col);
      break;
    case OpKind::kRank:
      add_icols_except(parent.col);
      for (const auto& b : parent.order) icols->push_back(ids->Intern(b));
      break;
    case OpKind::kDocTable:
    case OpKind::kLiteral:
      return;
  }
  *set = *set && value;
}

// ---------------- whole-DAG inference ---------------------------------------

PropertyMap PropertyMap::Infer(const OpPtr& root) {
  PropertyMap map;
  map.names_ = std::make_unique<ColumnIds>(root);
  ColumnIds* ids = map.names_.get();
  std::vector<Op*> topo = algebra::TopoOrder(root);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Op* op = *it;
    const NodeProps* kids[2] = {nullptr, nullptr};
    for (size_t i = 0; i < op->children.size(); ++i) {
      kids[i] = &map.props_[op->children[i].get()];
    }
    InferUp(*op, kids, ids, &map.props_[op]);
  }
  if (!topo.empty()) {
    NodeProps& p = map.props_[topo.front()];
    SeedRoot(*topo.front(), ids, &p.icols, &p.dedup_upstream);
  }
  // Parents come first in topological order, so every node has received
  // all its parents' demands by the time it passes on its own.
  for (Op* op : topo) {
    NodeProps& p = map.props_[op];
    Normalize(&p.icols);
    for (size_t slot = 0; slot < op->children.size(); ++slot) {
      NodeProps& c = map.props_[op->children[slot].get()];
      AddDemand(*op, p, c.cols, ids, &c.icols, &c.dedup_upstream);
    }
  }
  return map;
}

const NodeProps& PropertyMap::Get(const Op* op) const {
  auto it = props_.find(op);
  assert(it != props_.end() && "property lookup for node outside the plan");
  return it->second;
}

}  // namespace xqjg::opt

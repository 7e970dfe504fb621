#include "src/opt/rewrite_state.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

#include "src/algebra/dag.h"
#include "src/algebra/validate.h"
#include "src/common/str.h"

namespace xqjg::opt {

using algebra::Op;
using algebra::OpKind;
using algebra::OpPtr;

namespace {

bool SameValue(const Value& a, const Value& b) {
  return a.type() == b.type() && a == b;
}

/// Equal bottom-up properties (cols, proj, const, key, eq_class).
bool SameUp(const NodeProps& a, const NodeProps& b) {
  if (a.cols != b.cols || a.proj != b.proj || a.keys != b.keys ||
      a.eq_class != b.eq_class ||
      a.consts.size() != b.consts.size()) {
    return false;
  }
  for (size_t i = 0; i < a.consts.size(); ++i) {
    if (a.consts[i].first != b.consts[i].first ||
        !SameValue(a.consts[i].second, b.consts[i].second)) {
      return false;
    }
  }
  return true;
}

std::string Braced(const std::set<std::string>& names) {
  std::string out = "{";
  for (const auto& name : names) {
    if (out.size() > 1) out += ',';
    out += name;
  }
  out += '}';
  return out;
}

std::set<std::string> Names(const NodeProps& p, const ColSet& cols) {
  std::set<std::string> out;
  for (ColId col : cols) out.insert(p.names->Name(col));
  return out;
}

std::string KeysText(const NodeProps& p) {
  std::string out;
  for (const auto& key : p.KeyNames()) out += Braced(key);
  return out;
}

std::string ConstsText(const NodeProps& p) {
  std::string out;
  for (const auto& [col, val] : p.consts) {
    out += p.names->Name(col) + "=" + val.ToString() + " ";
  }
  return out;
}

/// Equality classes as a partition: column -> least column name of its
/// class (class ids are arbitrary labels).
std::map<std::string, std::string> EqPartition(const NodeProps& p) {
  std::map<ColId, std::string> least;
  for (const auto& [col, cls] : p.eq_class) {
    const std::string& name = p.names->Name(col);
    auto [it, added] = least.emplace(cls, name);
    if (!added && name < it->second) it->second = name;
  }
  std::map<std::string, std::string> out;
  for (const auto& [col, cls] : p.eq_class) {
    out[p.names->Name(col)] = least[cls];
  }
  return out;
}

/// Empty when `have` (maintained) equals `want` (from scratch).
std::string DiffProps(const NodeProps& have, const NodeProps& want) {
  auto differs = [](const char* what, const std::string& h,
                    const std::string& w) {
    return StrPrintf("%s: maintained %s, from scratch %s", what, h.c_str(),
                     w.c_str());
  };
  if (Names(have, have.cols) != Names(want, want.cols)) {
    return differs("cols", Braced(Names(have, have.cols)),
                   Braced(Names(want, want.cols)));
  }
  auto proj_names = [](const NodeProps& p) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& [o, i] : p.proj) {
      out.emplace_back(p.names->Name(o), p.names->Name(i));
    }
    return out;
  };
  if (proj_names(have) != proj_names(want)) {
    return "proj: the maintained projection list is out of date";
  }
  if (have.IcolNames() != want.IcolNames()) {
    return differs("icols", Braced(have.IcolNames()),
                   Braced(want.IcolNames()));
  }
  if (have.dedup_upstream != want.dedup_upstream) {
    return differs("set", have.dedup_upstream ? "true" : "false",
                   want.dedup_upstream ? "true" : "false");
  }
  bool consts_equal = have.consts.size() == want.consts.size();
  for (size_t i = 0; consts_equal && i < have.consts.size(); ++i) {
    consts_equal =
        have.names->Name(have.consts[i].first) ==
            want.names->Name(want.consts[i].first) &&
        SameValue(have.consts[i].second, want.consts[i].second);
  }
  if (!consts_equal) {
    return differs("const", ConstsText(have), ConstsText(want));
  }
  if (have.KeyNames() != want.KeyNames()) {
    return differs("key", KeysText(have), KeysText(want));
  }
  if (EqPartition(have) != EqPartition(want)) {
    return "eq_class: maintained and from-scratch partitions differ";
  }
  return "";
}

}  // namespace

RewriteState::RewriteState(OpPtr root)
    : root_(std::move(root)), ids_(std::make_unique<ColumnIds>(root_)) {
  root_node_ = Adopt(root_);
  Settle();
}

const RewriteState::Node& RewriteState::At(const Op* op) const {
  auto it = nodes_.find(op);
  assert(it != nodes_.end() && "operator outside the plan under rewrite");
  return it->second;
}

RewriteState::Node& RewriteState::At(const Op* op) {
  return const_cast<Node&>(std::as_const(*this).At(op));
}

RewriteState::Node* RewriteState::Adopt(const OpPtr& op) {
  auto [it, added] = nodes_.try_emplace(op.get());
  Node* n = &it->second;
  if (!added) return n;
  n->op = op;
  for (size_t slot = 0; slot < op->children.size(); ++slot) {
    Node* kid = Adopt(op->children[slot]);
    n->kids.push_back(kid);
    Link(n, slot, kid);
  }
  return n;
}

void RewriteState::Link(Node* parent, size_t slot, Node* child) {
  child->parents.emplace_back(parent, slot);
  child->down_dirty = true;
  ParentCountChanged(child);
}

void RewriteState::Unlink(Node* parent, size_t slot, Node* child) {
  auto& links = child->parents;
  links.erase(std::find(links.begin(), links.end(),
                        std::pair<Node*, size_t>(parent, slot)));
  child->down_dirty = true;
  ParentCountChanged(child);
}

void RewriteState::ParentCountChanged(Node* n) {
  // Rules 14–16 pull a rank up only past its single parent.
  if (n->op->kind != OpKind::kRank) return;
  for (const auto& [parent, slot] : n->parents) parent->ClearNoMatch();
}

void RewriteState::Changed(Node* n) {
  n->ClearNoMatch();
  for (const auto& [parent, slot] : n->parents) {
    parent->ClearNoMatch();
    for (const auto& [grandparent, s] : parent->parents) {
      grandparent->ClearNoMatch();
    }
  }
}

void RewriteState::Relink(Node* parent, size_t slot, Node* child) {
  Unlink(parent, slot, parent->kids[slot]);
  parent->op->children[slot] = child->op;
  parent->kids[slot] = child;
  Link(parent, slot, child);
  parent->schema_dirty = true;
  parent->up_dirty = true;
  parent->edge_below = true;
  Changed(parent);
}

void RewriteState::Release(Node* n) {
  if (n == root_node_ || !n->parents.empty()) return;
  // Pin the operator and its children: erasing the node drops its
  // reference, and a child may also be released through a sibling.
  const OpPtr op = n->op;
  const std::vector<OpPtr> kids = op->children;
  for (size_t slot = 0; slot < kids.size(); ++slot) {
    Unlink(n, slot, n->kids[slot]);
  }
  nodes_.erase(op.get());
  for (const OpPtr& kid : kids) {
    auto it = nodes_.find(kid.get());
    if (it != nodes_.end()) Release(&it->second);
  }
}

void RewriteState::Replace(Op* old_op, OpPtr new_op) {
  Node* old = &At(old_op);
  // Copy the links first: the replacement may itself consume `old_op`
  // (rule 8 wraps it), and that new link must stay.
  const std::vector<std::pair<Node*, size_t>> links = old->parents;
  Node* fresh = Adopt(new_op);
  for (const auto& [parent, slot] : links) Relink(parent, slot, fresh);
  if (old == root_node_) {
    root_ = std::move(new_op);
    root_node_ = fresh;
    fresh->down_dirty = true;
  }
  Release(old);
}

void RewriteState::SetChild(Op* op, size_t slot, OpPtr child) {
  Node* n = &At(op);
  Node* old = n->kids[slot];
  Relink(n, slot, Adopt(child));
  Release(old);
}

void RewriteState::Touched(Op* op) {
  Node* n = &At(op);
  n->schema_dirty = true;
  n->up_dirty = true;
  for (Node* kid : n->kids) kid->down_dirty = true;
  Changed(n);
}

void RewriteState::PostOrder(Node* n) {
  if (n->mark == epoch_) return;
  n->mark = epoch_;
  for (Node* kid : n->kids) PostOrder(kid);
  order_.push_back(n);
}

void RewriteState::Settle() {
  ++epoch_;
  order_.clear();
  PostOrder(root_node_);
  // Bottom-up, children first: schemas, then cols / const / key /
  // eq_class, passed upwards while they change.
  for (Node* n : order_) {
    if (n->edge_below) {
      // Rule 11 at a join asks whether one input reaches the other.
      n->edge_below = false;
      if (n->op->kind == OpKind::kJoin) n->ClearNoMatch();
      for (const auto& [parent, slot] : n->parents) parent->edge_below = true;
    }
    Op* op = n->op.get();
    bool schema_changed = false;
    if (n->schema_dirty) {
      n->schema_dirty = false;
      const std::vector<std::string> schema = op->schema;
      bool ok = algebra::RecomputeSchema(op);
      assert(ok && "rewrite left the plan schema-inconsistent");
      (void)ok;
      schema_changed = op->schema != schema;
    }
    if (!n->up_dirty && !schema_changed) continue;
    n->up_dirty = false;
    const NodeProps* kids[2] = {nullptr, nullptr};
    for (size_t i = 0; i < n->kids.size(); ++i) kids[i] = &n->kids[i]->props;
    NodeProps next;
    InferUp(*op, kids, ids_.get(), &next);
    if (!schema_changed && SameUp(next, n->props)) continue;
    next.icols = std::move(n->props.icols);
    next.dedup_upstream = n->props.dedup_upstream;
    n->props = std::move(next);
    for (const auto& [parent, slot] : n->parents) {
      parent->schema_dirty |= schema_changed;
      parent->up_dirty = true;
    }
    // A join parent hands down only the columns its child produces.
    if (schema_changed) n->down_dirty = true;
    Changed(n);
  }
  // Top-down, parents first: icols and set, passed downwards while they
  // change. Only the operator's own rules read them.
  std::reverse(order_.begin(), order_.end());
  for (Node* n : order_) {
    if (!n->down_dirty) continue;
    n->down_dirty = false;
    ColSet icols;
    bool set = true;
    if (n == root_node_) SeedRoot(*n->op, ids_.get(), &icols, &set);
    for (const auto& [parent, slot] : n->parents) {
      AddDemand(*parent->op, parent->props, n->props.cols, ids_.get(), &icols,
                &set);
    }
    Normalize(&icols);
    if (icols == n->props.icols && set == n->props.dedup_upstream) continue;
    n->props.icols = std::move(icols);
    n->props.dedup_upstream = set;
    for (Node* kid : n->kids) kid->down_dirty = true;
    n->ClearNoMatch();
  }
}

std::vector<Op*> RewriteState::AncestorsBottomUp(const Op* op) const {
  // order_ lists parents first; walked backwards, every operator comes
  // after its children.
  std::set<const Node*> above = {&At(op)};
  std::vector<Op*> out;
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const Node* n = *it;
    for (const Node* kid : n->kids) {
      if (!above.count(kid)) continue;
      above.insert(n);
      out.push_back(n->op.get());
      break;
    }
  }
  return out;
}

bool RewriteState::Reaches(const Op* from, const Op* target) {
  Node* goal = &At(target);
  ++epoch_;
  stack_.assign(1, &At(from));
  stack_.back()->mark = epoch_;
  while (!stack_.empty()) {
    Node* n = stack_.back();
    stack_.pop_back();
    if (n == goal) return true;
    for (Node* kid : n->kids) {
      if (kid->mark == epoch_) continue;
      kid->mark = epoch_;
      stack_.push_back(kid);
    }
  }
  return false;
}

Status RewriteState::CheckAgainstScratch(const std::string& stage) const {
  auto fail = [&](const Op* op, const std::string& detail) {
    algebra::ValidationError err;
    err.stage = stage;
    err.invariant = "incremental";
    err.detail = detail;
    if (op) {
      err.op_id = op->id;
      err.op_desc = StrPrintf("[%d] %s", op->id, op->Describe().c_str());
    }
    return err.ToStatus();
  };
  const std::vector<Op*> ops = algebra::BottomUpOrder(root_);
  if (ops.size() != nodes_.size()) {
    return fail(nullptr, StrPrintf("%zu operators tracked, %zu in the plan",
                                   nodes_.size(), ops.size()));
  }
  const algebra::ParentMap parents = algebra::BuildParentMap(root_);
  const PropertyMap scratch = PropertyMap::Infer(root_);
  for (const Op* op : ops) {
    auto it = nodes_.find(op);
    if (it == nodes_.end()) return fail(op, "operator not tracked");
    const Node& n = it->second;
    bool kids_match = n.kids.size() == op->children.size();
    for (size_t i = 0; kids_match && i < n.kids.size(); ++i) {
      kids_match = n.kids[i]->op == op->children[i];
    }
    if (!kids_match) return fail(op, "tracked child links are out of date");
    std::vector<std::pair<const Op*, size_t>> have, want;
    for (const auto& [parent, slot] : n.parents) {
      have.emplace_back(parent->op.get(), slot);
    }
    auto pit = parents.parents.find(op);
    if (pit != parents.parents.end()) {
      want.assign(pit->second.begin(), pit->second.end());
    }
    std::sort(have.begin(), have.end());
    std::sort(want.begin(), want.end());
    if (have != want) {
      return fail(op, StrPrintf("%zu parent links tracked, %zu in the plan",
                                have.size(), want.size()));
    }
    const std::string diff = DiffProps(n.props, scratch.Get(op));
    if (!diff.empty()) return fail(op, diff);
  }
  return Status::OK();
}

}  // namespace xqjg::opt

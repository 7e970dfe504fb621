#include "src/algebra/dag.h"

#include <algorithm>
#include <functional>

namespace xqjg::algebra {

namespace {

void PostOrder(Op* op, std::unordered_set<const Op*>* seen,
               std::vector<Op*>* out) {
  if (!seen->insert(op).second) return;
  for (const auto& child : op->children) {
    PostOrder(child.get(), seen, out);
  }
  out->push_back(op);
}

}  // namespace

std::vector<Op*> BottomUpOrder(const OpPtr& root) {
  std::unordered_set<const Op*> seen;
  std::vector<Op*> out;
  PostOrder(root.get(), &seen, &out);
  return out;
}

std::vector<Op*> TopoOrder(const OpPtr& root) {
  std::vector<Op*> out = BottomUpOrder(root);
  std::reverse(out.begin(), out.end());
  return out;
}

ParentMap BuildParentMap(const OpPtr& root) {
  ParentMap map;
  for (Op* op : TopoOrder(root)) {
    for (size_t slot = 0; slot < op->children.size(); ++slot) {
      map.parents[op->children[slot].get()].emplace_back(op, slot);
    }
  }
  return map;
}

bool Reaches(const Op* from, const Op* target) {
  if (from == target) return true;
  std::unordered_set<const Op*> seen;
  std::function<bool(const Op*)> walk = [&](const Op* op) {
    if (op == target) return true;
    if (!seen.insert(op).second) return false;
    for (const auto& child : op->children) {
      if (walk(child.get())) return true;
    }
    return false;
  };
  return walk(from);
}

namespace {
OpPtr CloneRec(const OpPtr& op,
               std::unordered_map<const Op*, OpPtr>* memo) {
  auto it = memo->find(op.get());
  if (it != memo->end()) return it->second;
  auto copy = std::make_shared<Op>(*op);
  for (auto& child : copy->children) {
    child = CloneRec(child, memo);
  }
  (*memo)[op.get()] = copy;
  return copy;
}
}  // namespace

OpPtr ClonePlan(const OpPtr& root) {
  std::unordered_map<const Op*, OpPtr> memo;
  return CloneRec(root, &memo);
}

size_t CountOps(const OpPtr& root) { return BottomUpOrder(root).size(); }

size_t CountOps(const OpPtr& root, OpKind kind) {
  size_t n = 0;
  for (Op* op : BottomUpOrder(root)) {
    if (op->kind == kind) ++n;
  }
  return n;
}

}  // namespace xqjg::algebra

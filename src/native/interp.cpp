#include "src/native/interp.h"

#include <algorithm>

#include "src/common/str.h"

namespace xqjg::native {

using xml::NodeKind;
using xml::XmlNode;
using xquery::Axis;
using xquery::CompOp;
using xquery::ExprKind;
using xquery::ExprPtr;
using xquery::NodeTest;
using xquery::TestKind;

Result<const XmlNode*> MapResolver::Resolve(const std::string& uri) {
  auto it = docs_.find(uri);
  if (it == docs_.end()) return Status::NotFound("document not loaded: " + uri);
  return it->second->doc_node.get();
}

namespace {

const XmlNode* RootOf(const XmlNode* node) {
  while (node->parent) node = node->parent;
  return node;
}

/// Document-order key across (possibly several) documents.
std::pair<const XmlNode*, int64_t> OrderKey(const XmlNode* node) {
  return {RootOf(node), node->pre};
}

void Ddo(std::vector<const XmlNode*>* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [](const XmlNode* a, const XmlNode* b) {
              return OrderKey(a) < OrderKey(b);
            });
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
}

/// Atomized untyped value, restricted like the doc-table encoding: nodes
/// with more than one descendant expose no value (paper §II-A; DESIGN.md
/// "value semantics").
std::optional<std::string> AtomizedString(const XmlNode* node) {
  switch (node->kind) {
    case NodeKind::kAttr:
    case NodeKind::kText:
      return node->value;
    case NodeKind::kElem:
    case NodeKind::kDoc:
      if (node->subtree_size > 1) return std::nullopt;
      if (node->children.size() == 1 &&
          node->children[0]->kind == NodeKind::kText) {
        return node->children[0]->value;
      }
      return std::string();
    default:
      return node->value;
  }
}

bool CompareStrings(const std::string& a, CompOp op, const std::string& b) {
  int c = a.compare(b);
  switch (op) {
    case CompOp::kEq:
      return c == 0;
    case CompOp::kNe:
      return c != 0;
    case CompOp::kLt:
      return c < 0;
    case CompOp::kLe:
      return c <= 0;
    case CompOp::kGt:
      return c > 0;
    case CompOp::kGe:
      return c >= 0;
  }
  return false;
}

bool CompareDoubles(double a, CompOp op, double b) {
  switch (op) {
    case CompOp::kEq:
      return a == b;
    case CompOp::kNe:
      return a != b;
    case CompOp::kLt:
      return a < b;
    case CompOp::kLe:
      return a <= b;
    case CompOp::kGt:
      return a > b;
    case CompOp::kGe:
      return a >= b;
  }
  return false;
}

class Interp {
 public:
  explicit Interp(DocumentResolver* resolver) : resolver_(resolver) {}

  using Seq = std::vector<const XmlNode*>;
  using Env = std::map<std::string, Seq>;

  Result<Seq> Eval(const ExprPtr& e, const Env& env) {
    switch (e->kind) {
      case ExprKind::kDoc: {
        XQJG_ASSIGN_OR_RETURN(const XmlNode* doc, resolver_->Resolve(e->str));
        return Seq{doc};
      }
      case ExprKind::kVar: {
        auto it = env.find(e->var);
        if (it == env.end()) {
          return Status::InvalidArgument("unbound variable $" + e->var);
        }
        return it->second;
      }
      case ExprKind::kEmptySeq:
        return Seq{};
      case ExprKind::kDdo: {
        XQJG_ASSIGN_OR_RETURN(Seq seq, Eval(e->a, env));
        Ddo(&seq);
        return seq;
      }
      case ExprKind::kStep: {
        XQJG_ASSIGN_OR_RETURN(Seq ctx, Eval(e->a, env));
        Seq out;
        for (const XmlNode* node : ctx) {
          Seq step = AxisStep(node, e->axis, e->test);
          out.insert(out.end(), step.begin(), step.end());
        }
        return out;
      }
      case ExprKind::kFor: {
        XQJG_ASSIGN_OR_RETURN(Seq in, Eval(e->a, env));
        Seq out;
        Env env2 = env;
        for (const XmlNode* node : in) {
          env2[e->var] = Seq{node};
          XQJG_ASSIGN_OR_RETURN(Seq body, Eval(e->b, env2));
          out.insert(out.end(), body.begin(), body.end());
        }
        return out;
      }
      case ExprKind::kLet: {
        XQJG_ASSIGN_OR_RETURN(Seq value, Eval(e->a, env));
        Env env2 = env;
        env2[e->var] = std::move(value);
        return Eval(e->b, env2);
      }
      case ExprKind::kIf: {
        XQJG_ASSIGN_OR_RETURN(bool cond, EvalCondition(e->a, env));
        if (!cond) return Seq{};
        return Eval(e->b, env);
      }
      default:
        return Status::NotSupported(
            StrPrintf("interpreter cannot evaluate expression kind '%s'",
                      xquery::ExprKindToString(e->kind)));
    }
  }

  Result<bool> EvalCondition(const ExprPtr& cond, const Env& env) {
    if (cond->kind == ExprKind::kEbv) {
      XQJG_ASSIGN_OR_RETURN(Seq seq, Eval(cond->a, env));
      return !seq.empty();
    }
    if (cond->kind == ExprKind::kComp) {
      return EvalGeneralComparison(cond, env);
    }
    XQJG_ASSIGN_OR_RETURN(Seq seq, Eval(cond, env));
    return !seq.empty();
  }

  // Existential general comparison over atomized operands.
  Result<bool> EvalGeneralComparison(const ExprPtr& comp, const Env& env) {
    const ExprPtr& lhs = comp->a;
    const ExprPtr& rhs = comp->b;
    auto is_lit = [](const ExprPtr& e) {
      return e->kind == ExprKind::kNumLit || e->kind == ExprKind::kStrLit;
    };
    if (is_lit(lhs) && is_lit(rhs)) {
      return Status::NotSupported("comparison of two literals");
    }
    if (is_lit(lhs) || is_lit(rhs)) {
      const ExprPtr& node_side = is_lit(lhs) ? rhs : lhs;
      const ExprPtr& lit = is_lit(lhs) ? lhs : rhs;
      CompOp op = comp->op;
      if (is_lit(lhs)) {
        // literal OP nodes  ==  nodes FLIP(OP) literal
        switch (op) {
          case CompOp::kLt: op = CompOp::kGt; break;
          case CompOp::kLe: op = CompOp::kGe; break;
          case CompOp::kGt: op = CompOp::kLt; break;
          case CompOp::kGe: op = CompOp::kLe; break;
          default: break;
        }
      }
      XQJG_ASSIGN_OR_RETURN(Seq nodes, Eval(node_side, env));
      for (const XmlNode* node : nodes) {
        std::optional<std::string> s = AtomizedString(node);
        if (!s) continue;
        if (lit->kind == ExprKind::kNumLit) {
          std::optional<double> d = ParseDecimal(*s);
          if (d && CompareDoubles(*d, op, lit->num)) return true;
        } else {
          if (CompareStrings(*s, op, lit->str)) return true;
        }
      }
      return false;
    }
    // node-node: untyped string comparison over all pairs.
    XQJG_ASSIGN_OR_RETURN(Seq left, Eval(lhs, env));
    XQJG_ASSIGN_OR_RETURN(Seq right, Eval(rhs, env));
    for (const XmlNode* l : left) {
      std::optional<std::string> ls = AtomizedString(l);
      if (!ls) continue;
      for (const XmlNode* r : right) {
        std::optional<std::string> rs = AtomizedString(r);
        if (!rs) continue;
        if (CompareStrings(*ls, comp->op, *rs)) return true;
      }
    }
    return false;
  }

 private:
  DocumentResolver* resolver_;
};

void CollectDescendants(const XmlNode* node, std::vector<const XmlNode*>* out) {
  // The native interpreter is the reference oracle: it is wall-clock
  // guarded per fragment/query by the deadline in xscan.cpp rather than
  // per row.  xqjg-lint: allow(no-budget-guard)
  for (const auto& child : node->children) {
    out->push_back(child.get());
    CollectDescendants(child.get(), out);
  }
}

}  // namespace

bool MatchesTest(const XmlNode* node, Axis axis, const NodeTest& test) {
  const bool attr_axis = axis == Axis::kAttribute;
  switch (test.kind) {
    case TestKind::kName:
      return node->kind == (attr_axis ? NodeKind::kAttr : NodeKind::kElem) &&
             node->name == test.name;
    case TestKind::kWildcard:
      return node->kind == (attr_axis ? NodeKind::kAttr : NodeKind::kElem);
    case TestKind::kText:
      return node->kind == NodeKind::kText;
    case TestKind::kComment:
      return node->kind == NodeKind::kComment;
    case TestKind::kPi:
      return node->kind == NodeKind::kPi;
    case TestKind::kElement:
      return node->kind == NodeKind::kElem &&
             (test.name.empty() || node->name == test.name);
    case TestKind::kAttribute:
      return node->kind == NodeKind::kAttr &&
             (test.name.empty() || node->name == test.name);
    case TestKind::kAnyNode:
      if (attr_axis) return node->kind == NodeKind::kAttr;
      if (node->kind == NodeKind::kAttr) return false;
      if (node->kind == NodeKind::kDoc) {
        switch (axis) {
          case Axis::kChild:
          case Axis::kDescendant:
          case Axis::kFollowing:
          case Axis::kPreceding:
          case Axis::kFollowingSibling:
          case Axis::kPrecedingSibling:
            return false;
          default:
            return true;
        }
      }
      return true;
  }
  return false;
}

std::vector<const XmlNode*> AxisStep(const XmlNode* context, Axis axis,
                                     const NodeTest& test) {
  std::vector<const XmlNode*> candidates;
  switch (axis) {
    case Axis::kChild:
      for (const auto& c : context->children) candidates.push_back(c.get());
      break;
    case Axis::kDescendant:
      CollectDescendants(context, &candidates);
      break;
    case Axis::kDescendantOrSelf:
      candidates.push_back(context);
      CollectDescendants(context, &candidates);
      break;
    case Axis::kSelf:
      candidates.push_back(context);
      break;
    case Axis::kAttribute:
      for (const auto& a : context->attrs) candidates.push_back(a.get());
      break;
    case Axis::kParent:
      if (context->parent) candidates.push_back(context->parent);
      break;
    case Axis::kAncestor:
      for (const XmlNode* p = context->parent; p; p = p->parent) {
        candidates.push_back(p);
      }
      std::reverse(candidates.begin(), candidates.end());
      break;
    case Axis::kAncestorOrSelf:
      for (const XmlNode* p = context; p; p = p->parent) {
        candidates.push_back(p);
      }
      std::reverse(candidates.begin(), candidates.end());
      break;
    case Axis::kFollowing: {
      const XmlNode* root = RootOf(context);
      std::vector<const XmlNode*> all;
      CollectDescendants(root, &all);
      const int64_t end = context->pre + context->subtree_size;
      // Oracle axis step; deadline-guarded in xscan.cpp.
      // xqjg-lint: allow(no-budget-guard)
      for (const XmlNode* n : all) {
        if (n->pre > end) candidates.push_back(n);
      }
      break;
    }
    case Axis::kPreceding: {
      const XmlNode* root = RootOf(context);
      std::vector<const XmlNode*> all;
      CollectDescendants(root, &all);
      // Oracle axis step; deadline-guarded in xscan.cpp.
      // xqjg-lint: allow(no-budget-guard)
      for (const XmlNode* n : all) {
        if (n->pre + n->subtree_size < context->pre) candidates.push_back(n);
      }
      break;
    }
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      if (context->kind == NodeKind::kAttr || !context->parent) break;
      // Oracle axis step; deadline-guarded in xscan.cpp.
      // xqjg-lint: allow(no-budget-guard)
      for (const auto& c : context->parent->children) {
        if (axis == Axis::kFollowingSibling ? c->pre > context->pre
                                            : c->pre < context->pre) {
          candidates.push_back(c.get());
        }
      }
      break;
    }
  }
  std::vector<const XmlNode*> out;
  // Oracle axis step; deadline-guarded in xscan.cpp.
  // xqjg-lint: allow(no-budget-guard)
  for (const XmlNode* n : candidates) {
    if (MatchesTest(n, axis, test)) out.push_back(n);
  }
  return out;
}

Result<std::vector<const XmlNode*>> EvaluateQuery(const ExprPtr& core,
                                                  DocumentResolver* resolver) {
  Interp interp(resolver);
  return interp.Eval(core, {});
}

}  // namespace xqjg::native

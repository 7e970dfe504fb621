#include "src/engine/columnar/plan_exec.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/operators.h"
#include "src/engine/columnar/columnar_exec.h"

namespace xqjg::engine::columnar {

using algebra::Comparison;
using algebra::OpPtr;
using algebra::Predicate;
using algebra::Term;
using opt::QualComparison;
using opt::QualTerm;

namespace {

uint32_t MaskOf(const PhysNode& node) {
  if (node.kind == PhysKind::kTbScan || node.kind == PhysKind::kIxScan) {
    return 1u << node.alias;
  }
  return MaskOf(*node.left) | MaskOf(*node.right);
}

/// Σ alias.col + constant as an algebra term over the lowered columns, or
/// over the doc relation's own column names when `local`.
Term ToTerm(const QualTerm& t, bool local) {
  Term out;
  for (const auto& [alias, col] : {std::pair{t.alias, &t.col},
                                   std::pair{t.alias2, &t.col2}}) {
    if (alias < 0) continue;
    (out.col.empty() ? out.col : out.col2) =
        local ? *col : AliasColumn(alias, *col);
  }
  out.constant = t.constant;
  out.param = t.param;
  out.param_name = t.param_name;
  return out;
}

Comparison ToComparison(const QualComparison& p, bool local) {
  return {ToTerm(p.lhs, local), p.op, ToTerm(p.rhs, local)};
}

Predicate ToPredicate(const std::vector<QualComparison>& preds, bool local) {
  Predicate out;
  for (const QualComparison& p : preds) {
    out.conjuncts.push_back(ToComparison(p, local));
  }
  return out;
}

void AddColumns(const Predicate& pred, std::set<std::string>* out) {
  for (const auto& cmp : pred.conjuncts) cmp.CollectCols(out);
}

bool Contains(const std::vector<QualComparison>& preds,
              const QualComparison& p) {
  for (const QualComparison& q : preds) {
    if (q.op == p.op && q.lhs == p.lhs && q.rhs == p.rhs) return true;
  }
  return false;
}

void AppendUnique(std::vector<std::string>* names, const std::string& name) {
  for (const std::string& n : *names) {
    if (n == name) return;
  }
  names->push_back(name);
}

/// Rewrites a physical join tree as table algebra over doc-relation
/// leaves. Alias k's rows are π[d<k>.pre, d<k>.<col>…](σ[local](doc)),
/// carrying an attribute column only where an algebra predicate above or
/// the tail reads it. Joins become ⋈ over the lowered columns (the hash
/// join keys on its column equalities). An index scan becomes a π(doc)
/// leaf, or × (outer, π(doc)) under a nested loop, recorded in `probes`
/// so the pipeline runs it on its B-tree.
class PlanLowering {
 public:
  explicit PlanLowering(LoweredPlan* out) : out_(out) {}

  Status Lower(const PhysicalPlan& plan) {
    const opt::JoinGraph& graph = *plan.graph;
    // Tail: δ over the select list, then the sort by (ORDER BY…, item).
    std::vector<std::string> keys;
    for (const QualTerm& t : graph.order_by) {
      XQJG_ASSIGN_OR_RETURN(std::string col, TailColumn(t));
      AppendUnique(&keys, col);
    }
    XQJG_ASSIGN_OR_RETURN(const std::string item, TailColumn(graph.item));
    std::vector<std::string> payload;
    if (graph.distinct) {
      // Constant payload terms cannot tell rows apart.
      for (const QualTerm& t : graph.select_list) {
        if (t.alias < 0) continue;
        XQJG_ASSIGN_OR_RETURN(std::string col, TailColumn(t));
        AppendUnique(&payload, col);
      }
    }
    for (const std::string& k : keys) AppendUnique(&payload, k);
    AppendUnique(&payload, item);
    const std::set<std::string> tail(payload.begin(), payload.end());
    XQJG_ASSIGN_OR_RETURN(OpPtr root, LowerNode(*plan.root, tail));
    std::vector<std::pair<std::string, std::string>> proj;
    for (const std::string& n : payload) proj.emplace_back(n, n);
    root = algebra::MakeProject(std::move(root), std::move(proj));
    if (graph.distinct) root = algebra::MakeDistinct(std::move(root));
    out_->root = algebra::MakeSerialize(std::move(root),
                                        keys.empty() ? item : keys[0], item);
    if (!keys.empty()) out_->root->order = std::move(keys);
    return Status::OK();
  }

 private:
  static Result<std::string> TailColumn(const QualTerm& t) {
    if (!t.IsSimpleCol()) {
      return Status::NotSupported("join-graph tail term is not a column: " +
                                  t.ToString());
    }
    return AliasColumn(t.alias, t.col);
  }

  /// `needed`: the lowered columns that algebra above this node reads.
  Result<OpPtr> LowerNode(const PhysNode& node,
                          const std::set<std::string>& needed) {
    if (node.kind == PhysKind::kTbScan || node.kind == PhysKind::kIxScan) {
      OpPtr leaf = Scan(node, needed);
      if (node.kind == PhysKind::kIxScan) {
        out_->probes[leaf.get()] = Probe(node, 0, {});
      }
      return leaf;
    }
    const PhysNode& right = *node.right;
    const uint32_t outer_mask = MaskOf(*node.left);
    const uint32_t bound = outer_mask | MaskOf(right);
    const bool scan_inner = node.kind == PhysKind::kNlJoin &&
                            (right.kind == PhysKind::kTbScan ||
                             right.kind == PhysKind::kIxScan);
    // The node's own predicates, minus those an inner scan holds itself.
    std::vector<QualComparison> preds;
    for (const QualComparison& p : node.preds) {
      if ((p.AliasMask() & ~bound) != 0) continue;  // unevaluable here
      if (scan_inner && Contains(right.preds, p)) continue;
      preds.push_back(p);
    }
    if (scan_inner && right.kind == PhysKind::kIxScan) {
      // Index nested loop: the outer input carries every outer column the
      // probe's predicates read, as the hash join's inputs do for its
      // predicates.
      IndexProbe probe = Probe(right, outer_mask, preds);
      std::set<std::string> outer_needed = needed;
      AddColumns(probe.filter, &outer_needed);
      XQJG_ASSIGN_OR_RETURN(OpPtr outer, LowerNode(*node.left, outer_needed));
      OpPtr join = algebra::MakeCross(std::move(outer), Scan(right, needed));
      out_->probes[join.get()] = std::move(probe);
      return join;
    }
    if (scan_inner) {
      // The hash join evaluates the TBSCAN's predicates on outer aliases.
      const uint32_t self = 1u << right.alias;
      for (const QualComparison& p : right.preds) {
        const uint32_t m = p.AliasMask();
        if ((m & ~self) != 0 && (m & ~bound) == 0) preds.push_back(p);
      }
    }
    const Predicate pred = ToPredicate(preds, /*local=*/false);
    std::set<std::string> child_needed = needed;
    AddColumns(pred, &child_needed);
    XQJG_ASSIGN_OR_RETURN(OpPtr left, LowerNode(*node.left, child_needed));
    OpPtr inner;
    if (scan_inner) {
      inner = Scan(right, child_needed);
    } else {
      XQJG_ASSIGN_OR_RETURN(inner, LowerNode(right, child_needed));
    }
    return algebra::MakeJoin(std::move(left), std::move(inner), pred);
  }

  /// The index probe of `scan` (kIxScan) with the aliases of `outer_mask`
  /// bound. Its filter holds the scan's predicates evaluable there, then
  /// `residual`; its range bounds are the sargable ones, matched to the
  /// index key columns: an equality per key column while they last, then
  /// the range comparisons on the next key column.
  static IndexProbe Probe(const PhysNode& scan, uint32_t outer_mask,
                          const std::vector<QualComparison>& residual) {
    const int k = scan.alias;
    IndexProbe probe;
    probe.scan = &scan;
    std::vector<QualComparison> oriented;
    std::vector<std::string> sarg;
    for (const QualComparison& p : scan.preds) {
      if ((p.AliasMask() & ~(outer_mask | (1u << k))) != 0) continue;
      probe.filter.conjuncts.push_back(ToComparison(p, /*local=*/false));
      oriented.push_back(opt::OrientTo(p, k));
      sarg.push_back(opt::SargColumn(oriented.back().lhs, k));
    }
    probe.filter.And(ToPredicate(residual, /*local=*/false));
    for (const std::string& key_col : scan.index->def.key_columns) {
      // Key column op a term over outer aliases and constants.
      auto usable = [&](size_t i) {
        const QualTerm& rhs = oriented[i].rhs;
        for (int a : {rhs.alias, rhs.alias2}) {
          if (a >= 0 && !(outer_mask & (1u << a))) return false;
        }
        return sarg[i] == key_col;
      };
      size_t i = 0;
      while (i < oriented.size() &&
             (oriented[i].op != algebra::CmpOp::kEq || !usable(i))) {
        ++i;
      }
      if (i < oriented.size()) {
        probe.eq.push_back(ToComparison(oriented[i], /*local=*/false));
        continue;
      }
      for (i = 0; i < oriented.size(); ++i) {
        const algebra::CmpOp op = oriented[i].op;
        if (op != algebra::CmpOp::kEq && op != algebra::CmpOp::kNe &&
            usable(i)) {
          probe.range.push_back(ToComparison(oriented[i], /*local=*/false));
        }
      }
      break;
    }
    return probe;
  }

  /// π[d<k>.pre, needed d<k>.<col>…](σ[local predicates](doc)). An index
  /// scan applies its predicates in the probe, so it is π(doc).
  OpPtr Scan(const PhysNode& node, const std::set<std::string>& needed) {
    const int k = node.alias;
    std::vector<QualComparison> local;
    for (const QualComparison& p : node.preds) {
      if ((p.AliasMask() & ~(1u << k)) == 0) local.push_back(p);
    }
    OpPtr in = doc_;
    if (node.kind == PhysKind::kTbScan && !local.empty()) {
      in = algebra::MakeSelect(std::move(in),
                               ToPredicate(local, /*local=*/true));
    }
    std::vector<std::pair<std::string, std::string>> proj;
    for (const std::string& col : algebra::DocColumns()) {
      const std::string name = AliasColumn(k, col);
      if (col == "pre" || needed.count(name)) proj.emplace_back(name, col);
    }
    return algebra::MakeProject(std::move(in), std::move(proj));
  }

  LoweredPlan* out_;
  const OpPtr doc_ = algebra::MakeDocTable();
};

}  // namespace

Result<std::shared_ptr<const LoweredPlan>> LowerPlan(
    const PhysicalPlan& plan) {
  auto lowered = std::make_shared<LoweredPlan>();
  XQJG_RETURN_NOT_OK(PlanLowering(lowered.get()).Lower(plan));
  return std::shared_ptr<const LoweredPlan>(std::move(lowered));
}

Result<std::unique_ptr<SequenceStream>> OpenPlanStreamColumnar(
    const PhysicalPlan& plan, const Database& db,
    const PlannerOptions& options, ExecStats* stats) {
  XQJG_ASSIGN_OR_RETURN(std::shared_ptr<const LoweredPlan> lowered,
                        LowerPlan(plan));
  ExecOptions exec;
  exec.limits = options.limits;
  exec.threads = options.threads;
  exec.params = options.params;
  exec.stats = stats;
  return OpenSequenceStreamColumnar(std::move(lowered), db, exec);
}

}  // namespace xqjg::engine::columnar

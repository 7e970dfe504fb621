#include "src/engine/planner.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/common/str.h"

namespace xqjg::engine {

using algebra::CmpOp;
using opt::JoinGraph;
using opt::QualComparison;
using opt::QualTerm;

namespace {

// ---------------------------------------------------------------------------
// Selectivity estimation.

double PredSelectivity(const QualComparison& p, const Database& db) {
  // Local predicate with a constant side.
  if (__builtin_popcount(p.AliasMask()) == 1) {
    const QualTerm& col_side = p.lhs.IsConst() ? p.rhs : p.lhs;
    const QualTerm& const_side = p.lhs.IsConst() ? p.lhs : p.rhs;
    if (!const_side.IsConst() || !col_side.IsSimpleCol()) return 0.3;
    const ColumnStats& st = db.Stats(db.ColumnIndex(col_side.col));
    CmpOp op = p.lhs.IsConst() ? algebra::FlipCmpOp(p.op) : p.op;
    if (const_side.IsParam()) {
      // Parameter marker: the value is unknown at plan time, so fall back
      // to value-independent estimates (uniform 1/ndv for equality, a
      // fixed fraction for ranges) — the classic bind-peeking-free shape.
      switch (op) {
        case CmpOp::kEq:
          return st.ndv > 0 ? 1.0 / static_cast<double>(st.ndv) : 0.01;
        case CmpOp::kNe:
          return st.ndv > 0 ? 1.0 - 1.0 / static_cast<double>(st.ndv) : 0.99;
        default:
          return 1.0 / 3.0;
      }
    }
    switch (op) {
      case CmpOp::kEq:
        return st.EqSelectivity(const_side.constant);
      case CmpOp::kNe:
        return 1.0 - st.EqSelectivity(const_side.constant);
      case CmpOp::kLt:
      case CmpOp::kLe:
        return st.RangeSelectivity(Value::Null(), const_side.constant);
      default:
        return st.RangeSelectivity(const_side.constant, Value::Null());
    }
  }
  // Join predicate.
  if (p.op == CmpOp::kEq) {
    double ndv = 2;
    if (p.lhs.IsSimpleCol()) {
      ndv = std::max(ndv, static_cast<double>(
                              db.Stats(db.ColumnIndex(p.lhs.col)).ndv));
    }
    if (p.rhs.IsSimpleCol()) {
      ndv = std::max(ndv, static_cast<double>(
                              db.Stats(db.ColumnIndex(p.rhs.col)).ndv));
    }
    return 1.0 / ndv;
  }
  // Structural range conjunct (half of a containment pair): average
  // subtree fraction.
  const double n = std::max<double>(1, static_cast<double>(db.row_count()));
  const ColumnStats& size_stats = db.Stats(db.ColumnIndex("size"));
  double avg_size = 4.0;
  if (!size_stats.bucket_bounds.empty()) {
    // median of size as a robust average
    const Value& median =
        size_stats.bucket_bounds[size_stats.bucket_bounds.size() / 2];
    avg_size = std::max(1.0, median.IsNumeric() ? median.AsDouble() : 4.0);
  }
  return std::min(0.5, std::sqrt(avg_size) / std::sqrt(n));
}

// ---------------------------------------------------------------------------
// Access path selection.

struct AccessPath {
  const Database::Index* index = nullptr;  // null = table scan
  int eq_prefix = 0;
  bool has_range = false;
  double cost = 0.0;
  std::vector<int> matched;   // served by the index probe
  std::vector<int> residual;  // checked per fetched row
};

/// Picks the best access path for `alias`, given the conjuncts
/// `applicable` (indices into `preds`, whose selectivities are `sels`;
/// their other aliases are bound at probe time).
AccessPath ChooseAccessPath(int alias, const std::vector<int>& applicable,
                            const std::vector<QualComparison>& preds,
                            const std::vector<double>& sels,
                            const Database& db) {
  const double n = std::max<double>(1, static_cast<double>(db.row_count()));
  // Each conjunct oriented to `alias` once, not once per index key column.
  std::vector<CmpOp> ops;
  std::vector<std::string> sarg_cols;
  for (int i : applicable) {
    QualComparison p = OrientTo(preds[static_cast<size_t>(i)], alias);
    ops.push_back(p.op);
    sarg_cols.push_back(SargColumn(p.lhs, alias));
  }
  AccessPath best;
  best.cost = n;  // table scan
  best.residual = applicable;
  for (const auto& index : db.indexes()) {
    AccessPath path;
    path.index = index.get();
    std::vector<bool> used(applicable.size(), false);
    double sel = 1.0;
    auto use = [&](size_t i) {
      used[i] = true;
      path.matched.push_back(applicable[i]);
      sel *= sels[static_cast<size_t>(applicable[i])];
    };
    // Match an equality per key column, then one range.
    size_t k = 0;
    for (; k < index->def.key_columns.size(); ++k) {
      const std::string& key_col = index->def.key_columns[k];
      bool matched_eq = false;
      for (size_t i = 0; i < applicable.size(); ++i) {
        if (used[i] || ops[i] != CmpOp::kEq || sarg_cols[i] != key_col) {
          continue;
        }
        use(i);
        matched_eq = true;
        ++path.eq_prefix;
        break;
      }
      if (!matched_eq) break;
    }
    if (k < index->def.key_columns.size()) {
      const std::string& key_col = index->def.key_columns[k];
      for (size_t i = 0; i < applicable.size(); ++i) {
        if (used[i] || ops[i] == CmpOp::kEq || ops[i] == CmpOp::kNe ||
            sarg_cols[i] != key_col) {
          continue;
        }
        use(i);
        path.has_range = true;
      }
    }
    if (path.matched.empty()) continue;
    for (size_t i = 0; i < applicable.size(); ++i) {
      if (!used[i]) path.residual.push_back(applicable[i]);
    }
    path.cost = 2.0 * std::log2(n + 1) + sel * n;
    if (path.cost < best.cost) best = std::move(path);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Join-order optimization (DP over connected subsets; greedy fallback).

struct SubPlan {
  std::unique_ptr<PhysNode> node;
  double rows = 0;
  double cost = 0;
  uint32_t mask = 0;
};

class Planner {
 public:
  Planner(const JoinGraph& graph, const Database& db,
          const PlannerOptions& options)
      : graph_(graph), db_(db), options_(options) {
    // Everything the enumeration asks of a predicate or an alias, computed
    // once: the inner loops below are bit tests over these arrays.
    for (const auto& p : graph_.predicates) {
      masks_.push_back(p.AliasMask());
      sels_.push_back(PredSelectivity(p, db_));
    }
    const size_t n = static_cast<size_t>(graph_.num_aliases);
    base_rows_.assign(n, static_cast<double>(db_.row_count()));
    neighbours_.assign(n, 0);
    for (size_t i = 0; i < masks_.size(); ++i) {
      for (uint32_t m = masks_[i]; m; m &= m - 1) {
        const auto a = static_cast<size_t>(__builtin_ctz(m));
        neighbours_[a] |= masks_[i] & ~(1u << a);
        if (__builtin_popcount(masks_[i]) == 1) base_rows_[a] *= sels_[i];
      }
    }
    for (double& rows : base_rows_) rows = std::max(1.0, rows);
  }

  Result<PhysicalPlan> Plan() {
    const int n = graph_.num_aliases;
    if (n == 0) return Status::InvalidArgument("join graph has no relations");
    if (options_.syntactic_order || n > 13) return PlanGreedy();
    return PlanDp();
  }

 private:
  double RowsOf(int alias) const {
    return base_rows_[static_cast<size_t>(alias)];
  }

  /// True iff predicate i is fully evaluable once `mask` is bound.
  bool CoveredBy(size_t i, uint32_t mask) const {
    return (masks_[i] & ~mask) == 0;
  }

  /// True iff predicate i becomes evaluable by joining `left` and `right`
  /// (it is evaluable on neither side alone).
  bool IsEdge(size_t i, uint32_t left, uint32_t right) const {
    return CoveredBy(i, left | right) && !CoveredBy(i, left) &&
           !CoveredBy(i, right);
  }

  /// Conjuncts on `alias` that are evaluable once `bound_mask` is bound.
  std::vector<int> Applicable(int alias, uint32_t bound_mask) const {
    const uint32_t self = 1u << alias;
    std::vector<int> out;
    for (size_t i = 0; i < masks_.size(); ++i) {
      if ((masks_[i] & self) && CoveredBy(i, bound_mask | self)) {
        out.push_back(static_cast<int>(i));
      }
    }
    return out;
  }

  std::vector<QualComparison> PredsAt(const std::vector<int>& idx) const {
    std::vector<QualComparison> out;
    for (int i : idx) out.push_back(graph_.predicates[static_cast<size_t>(i)]);
    return out;
  }

  SubPlan MakeScan(int alias, uint32_t bound_mask) {
    AccessPath path = ChooseAccessPath(alias, Applicable(alias, bound_mask),
                                       graph_.predicates, sels_, db_);
    SubPlan plan;
    plan.mask = 1u << alias;
    auto node = std::make_unique<PhysNode>();
    node->alias = alias;
    if (path.index) {
      node->kind = PhysKind::kIxScan;
      node->index = path.index;
      node->eq_prefix = path.eq_prefix;
      node->has_range = path.has_range;
      path.matched.insert(path.matched.end(), path.residual.begin(),
                          path.residual.end());
      node->preds = PredsAt(path.matched);
    } else {
      node->kind = PhysKind::kTbScan;
      node->preds = PredsAt(path.residual);
    }
    plan.rows = RowsOf(alias);
    plan.cost = path.cost;
    node->est_rows = plan.rows;
    node->est_cost = plan.cost;
    plan.node = std::move(node);
    return plan;
  }

  SubPlan Join(SubPlan left, SubPlan right, bool right_is_single) {
    const uint32_t mask = left.mask | right.mask;
    std::vector<int> edge;
    double sel;
    JoinEdge(left.mask, right.mask, &sel, &edge);
    double rows = std::max(1.0, left.rows * right.rows * sel);
    auto node = std::make_unique<PhysNode>();
    node->preds = PredsAt(edge);
    bool has_eq = false;
    for (const auto& p : node->preds) {
      if (p.op == CmpOp::kEq) has_eq = true;
    }
    double cost;
    if (right_is_single) {
      // Index nested-loop: re-plan the inner scan with outer bindings.
      SubPlan inner =
          MakeScan(static_cast<int>(__builtin_ctz(right.mask)), left.mask);
      node->kind = PhysKind::kNlJoin;
      cost = left.cost + left.rows * inner.cost + rows;
      node->right = std::move(inner.node);
    } else if (has_eq) {
      node->kind = PhysKind::kHsJoin;
      cost = left.cost + right.cost + left.rows + right.rows + rows;
      node->right = std::move(right.node);
    } else {
      node->kind = PhysKind::kNlJoin;  // filter nested-loop
      cost = left.cost + right.cost + left.rows * right.rows;
      node->right = std::move(right.node);
    }
    node->left = std::move(left.node);
    node->est_rows = rows;
    node->est_cost = cost;
    SubPlan out;
    out.mask = mask;
    out.rows = rows;
    out.cost = cost;
    out.node = std::move(node);
    return out;
  }

  /// Cost of the best access path for `alias` with `bound_mask` bound,
  /// memoized. Only a neighbour can complete a predicate on `alias`, so
  /// the bound aliases outside neighbours_[alias] do not change the answer
  /// and are left out of the memo key.
  double ScanCost(int alias, uint32_t bound_mask) {
    const uint32_t bound = bound_mask & neighbours_[static_cast<size_t>(alias)];
    const uint64_t key = (static_cast<uint64_t>(alias) << 32) | bound;
    auto it = scan_cost_memo_.find(key);
    if (it != scan_cost_memo_.end()) return it->second;
    double cost = ChooseAccessPath(alias, Applicable(alias, bound),
                                   graph_.predicates, sels_, db_)
                      .cost;
    scan_cost_memo_[key] = cost;
    return cost;
  }

  /// True iff some predicate joins the disjoint masks `left` and `right`
  /// (IsEdge). `*sel` gets the product of those predicates'
  /// selectivities, multiplied in predicate order so the cost doubles do
  /// not depend on how the predicates are looked up; `edge`, if given,
  /// gets their indices.
  bool JoinEdge(uint32_t left, uint32_t right, double* sel,
                std::vector<int>* edge = nullptr) const {
    bool connected = false;
    *sel = 1.0;
    for (size_t i = 0; i < masks_.size(); ++i) {
      if (!IsEdge(i, left, right)) continue;
      connected = true;
      *sel *= sels_[i];
      if (edge) edge->push_back(static_cast<int>(i));
    }
    return connected;
  }

  struct DpEntry {
    double cost = 0;
    double rows = 0;
    uint32_t left = 0;  // best split (0 = leaf)
    bool valid = false;
  };

  Result<PhysicalPlan> PlanDp() {
    const int n = graph_.num_aliases;
    const uint32_t full = (1u << n) - 1;
    std::vector<DpEntry> dp(static_cast<size_t>(full) + 1);
    for (int a = 0; a < n; ++a) {
      DpEntry& e = dp[1u << a];
      e.cost = ScanCost(a, 0);
      e.rows = RowsOf(a);
      e.valid = true;
    }
    for (uint32_t mask = 1; mask <= full; ++mask) {
      if (__builtin_popcount(mask) < 2) continue;
      DpEntry best;
      for (uint32_t left = (mask - 1) & mask; left; left = (left - 1) & mask) {
        const uint32_t right = mask & ~left;
        if (!dp[left].valid || !dp[right].valid) continue;
        double sel;
        if (!JoinEdge(left, right, &sel)) continue;
        const double rows =
            std::max(1.0, dp[left].rows * dp[right].rows * sel);
        double cost;
        if (__builtin_popcount(right) == 1) {
          int alias = static_cast<int>(__builtin_ctz(right));
          cost = dp[left].cost + dp[left].rows * ScanCost(alias, left) + rows;
        } else {
          cost = dp[left].cost + dp[right].cost + dp[left].rows +
                 dp[right].rows + rows;
        }
        if (!best.valid || cost < best.cost) {
          best.valid = true;
          best.cost = cost;
          best.rows = rows;
          best.left = left;
        }
      }
      if (!best.valid) {
        // Cross product fallback: split off the lowest alias.
        const uint32_t low = mask & (~mask + 1);
        const uint32_t rest = mask & ~low;
        if (dp[rest].valid && dp[low].valid) {
          best.valid = true;
          best.left = rest;
          best.rows = dp[rest].rows * dp[low].rows;
          best.cost = dp[rest].cost + dp[rest].rows * dp[low].cost +
                      best.rows;
        }
      }
      dp[mask] = best;
    }
    if (!dp[full].valid) {
      return Status::Internal("join-order DP failed to cover all relations");
    }
    // Reconstruct the plan tree along the recorded best splits.
    SubPlan root = BuildFromDp(dp, full);
    PhysicalPlan plan;
    plan.root = std::move(root.node);
    plan.est_cost = dp[full].cost;
    plan.graph = &graph_;
    return plan;
  }

  SubPlan BuildFromDp(const std::vector<DpEntry>& dp, uint32_t mask) {
    if (__builtin_popcount(mask) == 1) {
      return MakeScan(static_cast<int>(__builtin_ctz(mask)), 0);
    }
    const uint32_t left = dp[mask].left;
    const uint32_t right = mask & ~left;
    SubPlan lhs = BuildFromDp(dp, left);
    SubPlan rhs = BuildFromDp(dp, right);
    return Join(std::move(lhs), std::move(rhs),
                __builtin_popcount(right) == 1);
  }

  Result<PhysicalPlan> PlanGreedy() {
    const int n = graph_.num_aliases;
    std::vector<bool> joined(static_cast<size_t>(n), false);
    // Syntactic mode starts from alias 0; cost mode from the most
    // selective alias.
    int start = 0;
    if (!options_.syntactic_order) {
      double best_rows = 1e300;
      for (int a = 0; a < n; ++a) {
        double rows = RowsOf(a);
        if (rows < best_rows) {
          best_rows = rows;
          start = a;
        }
      }
    }
    SubPlan current = MakeScan(start, 0);
    joined[static_cast<size_t>(start)] = true;
    for (int step = 1; step < n; ++step) {
      int pick = -1;
      double pick_cost = 1e300;
      for (int a = 0; a < n; ++a) {
        if (joined[static_cast<size_t>(a)]) continue;
        if (options_.syntactic_order) {
          // The lowest-numbered alias joined to the plan by a predicate;
          // the lowest-numbered one only when none is (a cross product).
          if (pick < 0) pick = a;
          if (neighbours_[static_cast<size_t>(a)] & current.mask) {
            pick = a;
            break;
          }
          continue;
        }
        double sel;
        const bool connected = JoinEdge(current.mask, 1u << a, &sel);
        const double rows = std::max(1.0, current.rows * RowsOf(a) * sel);
        double cost = current.cost +
                      current.rows * ScanCost(a, current.mask) + rows +
                      (connected ? 0 : 1e12);
        if (cost < pick_cost) {
          pick_cost = cost;
          pick = a;
        }
      }
      current = Join(std::move(current), MakeScan(pick, current.mask), true);
      joined[static_cast<size_t>(pick)] = true;
    }
    PhysicalPlan plan;
    plan.root = std::move(current.node);
    plan.est_cost = current.cost;
    plan.graph = &graph_;
    return plan;
  }

  const JoinGraph& graph_;
  const Database& db_;
  PlannerOptions options_;
  std::vector<uint32_t> masks_;       // per predicate: AliasMask()
  std::vector<double> sels_;          // per predicate: PredSelectivity
  std::vector<double> base_rows_;     // per alias: rows after local preds
  std::vector<uint32_t> neighbours_;  // per alias: aliases sharing a pred
  std::unordered_map<uint64_t, double> scan_cost_memo_;
};

}  // namespace

Result<PhysicalPlan> PlanJoinGraph(const JoinGraph& graph, const Database& db,
                                   const PlannerOptions& options) {
  if (graph.num_aliases > 31) {
    return Status::NotSupported("join graphs beyond 31 relations");
  }
  Planner planner(graph, db, options);
  return planner.Plan();
}

namespace {

void ExplainNode(const PhysNode* node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  switch (node->kind) {
    case PhysKind::kTbScan:
      *out += StrPrintf("TBSCAN doc d%d", node->alias);
      break;
    case PhysKind::kIxScan:
      *out += StrPrintf("IXSCAN doc d%d [%s]%s", node->alias,
                        node->index->def.name.c_str(),
                        node->has_range ? " (range)" : "");
      break;
    case PhysKind::kNlJoin:
      *out += "NLJOIN";
      break;
    case PhysKind::kHsJoin:
      *out += "HSJOIN";
      break;
  }
  if (!node->preds.empty()) {
    std::vector<std::string> preds;
    for (const auto& p : node->preds) preds.push_back(p.ToString());
    *out += "  {" + Join(preds, " AND ") + "}";
  }
  *out += StrPrintf("  (~%.0f rows)\n", node->est_rows);
  if (node->left) ExplainNode(node->left.get(), depth + 1, out);
  if (node->right) ExplainNode(node->right.get(), depth + 1, out);
}

}  // namespace

std::string ExplainPlan(const PhysicalPlan& plan) {
  std::string out = "RETURN\n  SORT";
  if (plan.graph->distinct) out += " (distinct)";
  out += "\n";
  ExplainNode(plan.root.get(), 2, &out);
  return out;
}

}  // namespace xqjg::engine

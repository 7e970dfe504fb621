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
  // Structural range conjunct outside a containment pair (see
  // ClassifyStep): average subtree fraction.
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

/// A join conjunct's part in a step between ancestor alias `anc` and
/// descendant alias `desc`: the containment pair `anc.pre < desc.pre` (its
/// lower half) and `desc.pre <= anc.pre + anc.size` (its upper half), and
/// the child step's `anc.level + 1 = desc.level`.
struct StepRole {
  enum Kind { kNone, kLower, kUpper, kLevel } kind = kNone;
  int anc = -1;
  int desc = -1;
};

StepRole ClassifyStep(const QualComparison& pred) {
  auto is_col = [](const QualTerm& t, const char* col) {
    return t.IsSimpleCol() && t.col == col;
  };
  StepRole role;
  if (pred.op == CmpOp::kEq) {
    for (const auto& [a, d] : {std::pair{&pred.lhs, &pred.rhs},
                               std::pair{&pred.rhs, &pred.lhs}}) {
      if (a->alias >= 0 && a->alias2 < 0 && a->col == "level" &&
          a->param < 0 && a->constant.IsNumeric() &&
          a->constant.AsInt() == 1 && is_col(*d, "level") &&
          d->alias != a->alias) {
        return {StepRole::kLevel, a->alias, d->alias};
      }
    }
    return role;
  }
  // Orient to `small < big` or `small <= big`.
  const bool less = pred.op == CmpOp::kLt || pred.op == CmpOp::kLe;
  const bool greater = pred.op == CmpOp::kGt || pred.op == CmpOp::kGe;
  if (!less && !greater) return role;
  const QualTerm& small = less ? pred.lhs : pred.rhs;
  const QualTerm& big = less ? pred.rhs : pred.lhs;
  if (!is_col(small, "pre")) return role;
  if (is_col(big, "pre") && big.alias != small.alias) {
    return {StepRole::kLower, small.alias, big.alias};
  }
  const bool pre_plus_size =
      big.alias >= 0 && big.alias == big.alias2 && big.constant.is_null() &&
      big.param < 0 &&
      ((big.col == "pre" && big.col2 == "size") ||
       (big.col == "size" && big.col2 == "pre"));
  if (pre_plus_size && big.alias != small.alias) {
    return {StepRole::kUpper, big.alias, small.alias};
  }
  return role;
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
      hashable_.push_back(p.op == CmpOp::kEq && p.lhs.IsSimpleCol() &&
                          p.rhs.IsSimpleCol() && p.lhs.alias != p.rhs.alias);
    }
    const size_t n = static_cast<size_t>(graph_.num_aliases);
    base_rows_.assign(n, static_cast<double>(db_.row_count()));
    neighbours_.assign(n, 0);
    alias_preds_.assign(n, {});
    for (size_t i = 0; i < masks_.size(); ++i) {
      for (uint32_t m = masks_[i]; m; m &= m - 1) {
        const auto a = static_cast<size_t>(__builtin_ctz(m));
        neighbours_[a] |= masks_[i] & ~(1u << a);
        alias_preds_[a].push_back(static_cast<int>(i));
        if (__builtin_popcount(masks_[i]) == 1) base_rows_[a] *= sels_[i];
      }
    }
    for (double& rows : base_rows_) rows = std::max(1.0, rows);
    EstimateSteps();
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

  /// Estimates each structural step as N:1 (Wu, Patel and Jagadish, EDBT
  /// 2002, size the structural join by its descendants): every row of the
  /// descendant alias lies below about one row of the ancestor alias,
  /// after that alias's local predicates. So a containment pair's upper
  /// half gets 1 / rows(ancestor), or the document's share of the rows
  /// when the ancestor is one document node, and its lower half and the
  /// child step's level equality get 1. Conjuncts of no complete pair
  /// keep PredSelectivity's estimate.
  void EstimateSteps() {
    std::vector<StepRole> roles;
    for (const auto& p : graph_.predicates) roles.push_back(ClassifyStep(p));
    auto has = [&](StepRole::Kind kind, int anc, int desc) {
      for (const StepRole& r : roles) {
        if (r.kind == kind && r.anc == anc && r.desc == desc) return true;
      }
      return false;
    };
    for (size_t i = 0; i < roles.size(); ++i) {
      const StepRole& r = roles[i];
      if (r.kind == StepRole::kNone ||
          !has(StepRole::kLower, r.anc, r.desc) ||
          !has(StepRole::kUpper, r.anc, r.desc)) {
        continue;
      }
      if (r.kind != StepRole::kUpper) {
        sels_[i] = 1.0;
        continue;
      }
      // A document node's name is its URI: it picks one document, not a
      // tag, so only the descendants in that document lie below it.
      const double share = DocumentShare(r.anc);
      sels_[i] = share >= 0 ? share : 1.0 / RowsOf(r.anc);
    }
  }

  /// When local predicates pin `alias` to the document node of one
  /// document (`kind = 0 AND name = uri`), the share of the database's
  /// rows in that document; else -1.
  double DocumentShare(int alias) const {
    const xml::DocTable* doc = db_.source();
    bool document_node = false;
    std::string uri;
    for (int i : alias_preds_[static_cast<size_t>(alias)]) {
      const QualComparison& p = graph_.predicates[static_cast<size_t>(i)];
      if (__builtin_popcount(masks_[static_cast<size_t>(i)]) != 1 ||
          p.op != CmpOp::kEq) {
        continue;
      }
      const QualTerm& col = p.lhs.IsConst() ? p.rhs : p.lhs;
      const QualTerm& val = p.lhs.IsConst() ? p.lhs : p.rhs;
      if (!col.IsSimpleCol() || !val.IsConst() || val.IsParam()) continue;
      if (col.col == "kind" && val.constant.IsNumeric() &&
          val.constant.AsInt() == 0) {
        document_node = true;
      }
      if (col.col == "name" && val.constant.type() == ValueType::kString) {
        uri = val.constant.AsString();
      }
    }
    if (!doc || !document_node || uri.empty()) return -1;
    auto pre = doc->FindDocument(uri);
    if (!pre.ok()) return -1;
    const Value size = db_.Column(db_.ColumnIndex("size"))
                           .GetValue(static_cast<size_t>(pre.value()));
    if (!size.IsNumeric()) return -1;
    const double rows =
        std::max<double>(1, static_cast<double>(db_.row_count()));
    return std::min(1.0, (size.AsDouble() + 1) / rows);
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
    bool hashable = false;
    for (int i : edge) hashable = hashable || hashable_[static_cast<size_t>(i)];
    double cost;
    if (right_is_single) {
      // Index nested-loop: re-plan the inner scan with outer bindings.
      SubPlan inner =
          MakeScan(static_cast<int>(__builtin_ctz(right.mask)), left.mask);
      node->kind = PhysKind::kNlJoin;
      cost = left.cost + left.rows * inner.cost + rows;
      node->right = std::move(inner.node);
    } else {
      node->kind = hashable ? PhysKind::kHsJoin
                            : PhysKind::kNlJoin;  // filter nested-loop
      cost = PairCost(left.cost, left.rows, right.cost, right.rows, rows,
                      hashable);
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
                std::vector<int>* edge = nullptr,
                bool* hashable = nullptr) const {
    bool connected = false;
    *sel = 1.0;
    if (hashable) *hashable = false;
    for (size_t i = 0; i < masks_.size(); ++i) {
      if (!IsEdge(i, left, right)) continue;
      connected = true;
      *sel *= sels_[i];
      if (edge) edge->push_back(static_cast<int>(i));
      if (hashable && hashable_[i]) *hashable = true;
    }
    return connected;
  }

  /// Cost of joining two subplans that are not an index nested loop: a
  /// hash join on the column equalities of the edge when there is one,
  /// else a nested loop that compares every pair (the pipeline's hash
  /// join keys only on column = column, see columnar_exec.h).
  static double PairCost(double lcost, double lrows, double rcost,
                         double rrows, double rows, bool hashable) {
    return hashable ? lcost + rcost + lrows + rrows + rows
                    : lcost + rcost + lrows * rrows;
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
        bool hashable;
        if (!JoinEdge(left, right, &sel, nullptr, &hashable)) continue;
        const double rows =
            std::max(1.0, dp[left].rows * dp[right].rows * sel);
        double cost;
        if (__builtin_popcount(right) == 1) {
          int alias = static_cast<int>(__builtin_ctz(right));
          cost = dp[left].cost + dp[left].rows * ScanCost(alias, left) + rows;
        } else {
          cost = PairCost(dp[left].cost, dp[left].rows, dp[right].cost,
                          dp[right].rows, rows, hashable);
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

  /// Beyond DP's reach: in syntactic mode, aliases in syntactic order
  /// from alias 0; in cost mode, the cheapest of the greedy orders grown
  /// from each alias.
  Result<PhysicalPlan> PlanGreedy() {
    double best_cost = 0;
    std::vector<int> best = GreedyOrder(0, &best_cost);
    for (int start = 1; !options_.syntactic_order && start < graph_.num_aliases;
         ++start) {
      double cost = 0;
      std::vector<int> order = GreedyOrder(start, &cost);
      if (cost < best_cost) {
        best_cost = cost;
        best = std::move(order);
      }
    }
    SubPlan current = MakeScan(best[0], 0);
    for (size_t i = 1; i < best.size(); ++i) {
      current = Join(std::move(current), MakeScan(best[i], current.mask),
                     true);
    }
    PhysicalPlan plan;
    plan.root = std::move(current.node);
    plan.est_cost = current.cost;
    plan.graph = &graph_;
    return plan;
  }

  /// The left-deep join order grown from `start`, each step joining the
  /// alias that is cheapest to add next (syntactic mode: the
  /// lowest-numbered alias joined to the plan by a predicate, or the
  /// lowest-numbered one when none is), and its estimated cost, which is
  /// the cost Join() gives the plan built in that order.
  std::vector<int> GreedyOrder(int start, double* cost) {
    const int n = graph_.num_aliases;
    std::vector<int> order = {start};
    uint32_t mask = 1u << start;
    double rows = RowsOf(start);
    *cost = ScanCost(start, 0);
    for (int step = 1; step < n; ++step) {
      int pick = -1;
      double pick_cost = 1e300, pick_step = 0, pick_rows = 0;
      for (int a = 0; a < n; ++a) {
        if (mask & (1u << a)) continue;
        const bool linked = neighbours_[static_cast<size_t>(a)] & mask;
        if (options_.syntactic_order && pick >= 0 && !linked) continue;
        double sel;
        const bool connected = StepEdge(mask, a, &sel);
        const double next_rows = std::max(1.0, rows * RowsOf(a) * sel);
        const double step_cost = rows * ScanCost(a, mask) + next_rows;
        if (options_.syntactic_order) {
          pick = a;
          pick_step = step_cost;
          pick_rows = next_rows;
          if (linked) break;
          continue;
        }
        const double total = step_cost + (connected ? 0 : 1e12);
        if (total < pick_cost) {
          pick_cost = total;
          pick = a;
          pick_step = step_cost;
          pick_rows = next_rows;
        }
      }
      order.push_back(pick);
      mask |= 1u << pick;
      rows = pick_rows;
      *cost += pick_step;
    }
    return order;
  }

  /// JoinEdge(mask, {a}) over the predicates on `a` only.
  bool StepEdge(uint32_t mask, int a, double* sel) const {
    bool connected = false;
    *sel = 1.0;
    for (int i : alias_preds_[static_cast<size_t>(a)]) {
      if (!IsEdge(static_cast<size_t>(i), mask, 1u << a)) continue;
      connected = true;
      *sel *= sels_[static_cast<size_t>(i)];
    }
    return connected;
  }

  const JoinGraph& graph_;
  const Database& db_;
  PlannerOptions options_;
  std::vector<uint32_t> masks_;       // per predicate: AliasMask()
  std::vector<double> sels_;          // per predicate: PredSelectivity
  /// per predicate: a column equality between two aliases (a hash key)
  std::vector<bool> hashable_;
  std::vector<double> base_rows_;     // per alias: rows after local preds
  std::vector<uint32_t> neighbours_;  // per alias: aliases sharing a pred
  std::vector<std::vector<int>> alias_preds_;  // per alias: its predicates
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

#include "src/opt/plan_check.h"

#include <set>
#include <utility>

#include "src/common/str.h"
#include "src/engine/columnar/column_batch.h"
#include "src/engine/database.h"
#include "src/engine/planner.h"

namespace xqjg::opt {

namespace {

using algebra::ValidationError;

/// Shared error builder: same rendering as the algebra validator, with
/// the physical node / graph element description in op_desc.
ValidationError MakeError(const std::string& stage, const char* invariant,
                          std::string desc, std::string detail) {
  ValidationError err;
  err.stage = stage;
  err.invariant = invariant;
  err.detail = std::move(detail);
  err.op_id = 0;  // physical nodes carry no ids; desc locates the node
  err.op_desc = std::move(desc);
  return err;
}

// ---------------------------------------------------------------------
// Join-graph checks
// ---------------------------------------------------------------------

class GraphChecker {
 public:
  GraphChecker(const JoinGraph& graph, const std::string& stage,
               int num_params)
      : graph_(graph), stage_(stage), num_params_(num_params) {}

  std::vector<ValidationError> Run() {
    // The planner and both executors mask alias sets into uint32s.
    if (graph_.num_aliases <= 0 || graph_.num_aliases > 32) {
      Report("alias-range", "join graph",
             StrPrintf("num_aliases is %d, expected 1..32 (alias sets are "
                       "uint32 masks)", graph_.num_aliases));
      return std::move(errors_);
    }
    for (const QualComparison& p : graph_.predicates) {
      CheckTerm(p.lhs, "predicate " + p.ToString());
      CheckTerm(p.rhs, "predicate " + p.ToString());
    }
    for (const QualTerm& t : graph_.select_list) {
      CheckTerm(t, "select list");
    }
    for (const QualTerm& t : graph_.order_by) {
      CheckTerm(t, "order by");
    }
    CheckTerm(graph_.item, "item");
    if (graph_.item.IsConst() && graph_.item.constant.is_null() &&
        !graph_.item.IsParam()) {
      Report("tail-sortkey", "item",
             "item term is absent (no result column)");
    }
    CheckTail();
    return std::move(errors_);
  }

 private:
  void Report(const char* invariant, std::string desc, std::string detail) {
    errors_.push_back(MakeError(stage_, invariant, std::move(desc),
                                std::move(detail)));
  }

  void CheckTerm(const QualTerm& t, const std::string& where) {
    for (const auto& [alias, col] :
         {std::pair<int, const std::string*>{t.alias, &t.col},
          {t.alias2, &t.col2}}) {
      if (alias < 0) continue;
      if (alias >= graph_.num_aliases) {
        Report("alias-range", where,
               StrPrintf("term %s references alias d%d but the graph has "
                         "%d alias(es)", t.ToString().c_str(), alias,
                         graph_.num_aliases));
      }
      bool known = false;
      for (const std::string& doc_col : engine::EngineDocColumns()) {
        if (doc_col == *col) known = true;
      }
      if (!known) {
        Report("column-ref", where,
               StrPrintf("term %s references unknown doc-relation column "
                         "'%s'", t.ToString().c_str(), col->c_str()));
      }
    }
    if (t.IsParam()) {
      if (t.param_name.empty()) {
        Report("param-slot", where,
               StrPrintf("parameter marker slot %d has no name", t.param));
      }
      if (num_params_ != algebra::kParamsUnknown &&
          t.param >= num_params_) {
        Report("param-slot", where,
               StrPrintf("parameter marker $%s uses slot %d but only %d "
                         "external variable(s) are declared",
                         t.param_name.c_str(), t.param, num_params_));
      }
    }
  }

  void CheckTail() {
    // The plan tail sorts by (order_by + item) and, when distinct,
    // deduplicates *adjacent* rows on the select_list payload. That is a
    // complete DISTINCT only if payload-equal rows are guaranteed
    // adjacent, i.e. the payload determines the sort key: every sort-key
    // term must appear in the select list.
    if (graph_.distinct) {
      std::vector<QualTerm> key = graph_.order_by;
      key.push_back(graph_.item);
      for (const QualTerm& t : key) {
        bool found = false;
        for (const QualTerm& s : graph_.select_list) {
          if (s == t) found = true;
        }
        if (!found) {
          Report("tail-sortkey", "distinct tail",
                 StrPrintf("sort-key term %s is missing from the DISTINCT "
                           "payload (select list %s) — adjacent-row dedup "
                           "after the sort would miss duplicates",
                           t.ToString().c_str(),
                           TermListToString(graph_.select_list).c_str()));
        }
      }
    }
    // DistinctPayloadEqualsSortKey() gates the batched executors'
    // dedup-by-sort-key fast path; recompute it independently (string
    // set containment both ways) and require agreement.
    std::set<std::string> payload, key;
    for (const QualTerm& t : graph_.select_list) payload.insert(t.ToString());
    for (const QualTerm& t : graph_.order_by) key.insert(t.ToString());
    key.insert(graph_.item.ToString());
    const bool recomputed = payload == key;
    if (graph_.DistinctPayloadEqualsSortKey() != recomputed) {
      Report("tail-sortkey", "distinct tail",
             StrPrintf("DistinctPayloadEqualsSortKey() reports %s but the "
                       "recomputed payload/sort-key comparison says %s "
                       "(payload %s vs sort key %s + item %s)",
                       graph_.DistinctPayloadEqualsSortKey() ? "true"
                                                             : "false",
                       recomputed ? "true" : "false",
                       TermListToString(graph_.select_list).c_str(),
                       TermListToString(graph_.order_by).c_str(),
                       graph_.item.ToString().c_str()));
    }
  }

  static std::string TermListToString(const std::vector<QualTerm>& terms) {
    std::string out = "[";
    for (size_t i = 0; i < terms.size(); ++i) {
      if (i) out += ", ";
      out += terms[i].ToString();
    }
    out += "]";
    return out;
  }

  const JoinGraph& graph_;
  const std::string& stage_;
  const int num_params_;
  std::vector<ValidationError> errors_;
};

// ---------------------------------------------------------------------
// Physical-plan checks
// ---------------------------------------------------------------------

const char* PhysKindName(engine::PhysKind kind) {
  switch (kind) {
    case engine::PhysKind::kIxScan: return "IXSCAN";
    case engine::PhysKind::kTbScan: return "TBSCAN";
    case engine::PhysKind::kNlJoin: return "NLJOIN";
    case engine::PhysKind::kHsJoin: return "HSJOIN";
  }
  return "?";
}

/// Type category of a hash-join key term for the hsjoin-key-types check.
/// kEither covers parameter markers (bound at Execute) and terms the
/// categorizer cannot pin down.
enum class KeyCat { kNumeric, kString, kEither };

class PlanChecker {
 public:
  PlanChecker(const engine::PhysicalPlan& plan, const engine::Database& db,
              const PlanCheckContext& context, const std::string& stage)
      : plan_(plan), db_(db), context_(context), stage_(stage) {}

  std::vector<ValidationError> Run() {
    if (!plan_.root) {
      Report("phys-structure", "physical plan", "plan root is null");
      return std::move(errors_);
    }
    if (!plan_.graph) {
      Report("phys-structure", "physical plan",
             "plan carries no join graph (graph is null)");
      return std::move(errors_);
    }
    num_aliases_ = plan_.graph->num_aliases;
    const uint32_t covered = CheckNode(plan_.root.get());
    const uint32_t all =
        num_aliases_ >= 32 ? ~0u : (1u << num_aliases_) - 1u;
    if (num_aliases_ > 0 && covered != all) {
      for (int a = 0; a < num_aliases_; ++a) {
        if (!(covered & (1u << a))) {
          Report("phys-structure", "physical plan",
                 StrPrintf("alias d%d is never scanned (join graph has %d "
                           "aliases)", a, num_aliases_));
        }
      }
    }
    return std::move(errors_);
  }

 private:
  void Report(const char* invariant, std::string desc, std::string detail) {
    errors_.push_back(MakeError(stage_, invariant, std::move(desc),
                                std::move(detail)));
  }

  std::string Desc(const engine::PhysNode* node) const {
    if (node->kind == engine::PhysKind::kIxScan ||
        node->kind == engine::PhysKind::kTbScan) {
      return StrPrintf("%s d%d", PhysKindName(node->kind), node->alias);
    }
    return PhysKindName(node->kind);
  }

  /// Returns the alias mask scanned in `node`'s subtree.
  uint32_t CheckNode(const engine::PhysNode* node) {
    const bool is_scan = node->kind == engine::PhysKind::kIxScan ||
                         node->kind == engine::PhysKind::kTbScan;
    uint32_t mask = 0;
    if (is_scan) {
      if (node->left || node->right) {
        Report("phys-structure", Desc(node),
               "scan node has children (scans are leaves)");
      }
      if (node->alias < 0 || node->alias >= num_aliases_) {
        Report("alias-range", Desc(node),
               StrPrintf("scan alias d%d is outside the graph's %d "
                         "alias(es)", node->alias, num_aliases_));
      } else {
        mask = 1u << node->alias;
        if (scanned_ & mask) {
          Report("phys-structure", Desc(node),
                 StrPrintf("alias d%d is scanned twice", node->alias));
        }
        scanned_ |= mask;
      }
      CheckScanIndex(node);
    } else {
      if (!node->left || !node->right) {
        Report("phys-structure", Desc(node),
               "join node is missing a child (joins are binary)");
        return mask;
      }
      mask = CheckNode(node->left.get()) | CheckNode(node->right.get());
      if (node->kind == engine::PhysKind::kHsJoin) CheckHashKeys(node);
    }
    CheckPreds(node, mask, is_scan);
    return mask;
  }

  void CheckScanIndex(const engine::PhysNode* node) {
    if (node->kind == engine::PhysKind::kTbScan) {
      if (node->index) {
        Report("phys-structure", Desc(node),
               "table scan carries an index pointer");
      }
      return;
    }
    if (!node->index) {
      Report("ixscan-index", Desc(node),
             "index scan carries no index pointer");
      return;
    }
    const std::string& name = node->index->def.name;
    const std::string rendered = node->index->def.ToString();
    if (context_.catalog_index_defs) {
      auto it = context_.catalog_index_defs->find(name);
      if (it == context_.catalog_index_defs->end()) {
        Report("ixscan-index", Desc(node),
               StrPrintf("probed index '%s' is not in the catalog "
                         "snapshot's index_defs", name.c_str()));
      } else if (it->second != rendered) {
        Report("ixscan-index", Desc(node),
               StrPrintf("probed index '%s' definition (%s) does not "
                         "match the catalog snapshot's (%s)", name.c_str(),
                         rendered.c_str(), it->second.c_str()));
      }
    }
    if (context_.used_indexes) {
      auto it = context_.used_indexes->find(name);
      if (it == context_.used_indexes->end()) {
        Report("used-indexes", Desc(node),
               StrPrintf("probed index '%s' is missing from the prepared "
                         "artifact's used_indexes — DDL on it would not "
                         "invalidate this plan", name.c_str()));
      } else if (it->second != rendered) {
        Report("used-indexes", Desc(node),
               StrPrintf("probed index '%s' is recorded in used_indexes "
                         "with a stale definition (%s vs plan's %s)",
                         name.c_str(), it->second.c_str(),
                         rendered.c_str()));
      }
    }
  }

  void CheckPreds(const engine::PhysNode* node, uint32_t subtree_mask,
                  bool is_scan) {
    for (const QualComparison& p : node->preds) {
      for (const QualTerm* t : {&p.lhs, &p.rhs}) {
        CheckTermRefs(node, *t, p);
        if (t->IsParam()) {
          if (t->param_name.empty()) {
            Report("param-slot", Desc(node),
                   StrPrintf("predicate %s: parameter marker slot %d has "
                             "no name", p.ToString().c_str(), t->param));
          }
          if (context_.num_params != algebra::kParamsUnknown &&
              t->param >= context_.num_params) {
            Report("param-slot", Desc(node),
                   StrPrintf("predicate %s: parameter marker $%s uses "
                             "slot %d but only %d external variable(s) "
                             "are declared", p.ToString().c_str(),
                             t->param_name.c_str(), t->param,
                             context_.num_params));
          }
        }
      }
      if (!is_scan) {
        // A join evaluates its edge predicates over its own output; a
        // reference to an alias outside the subtree would read a column
        // that does not exist yet. (Scan predicates may probe outer
        // aliases — that is exactly what a parameterized inner of an
        // NLJOIN does — so only alias validity is checked there, by
        // CheckTermRefs.)
        const uint32_t outside = p.AliasMask() & ~subtree_mask;
        for (int alias = 0; alias < num_aliases_ && alias < 32; ++alias) {
          if (outside & (1u << alias)) {
            Report("pred-binding", Desc(node),
                   StrPrintf("join predicate %s references alias d%d, "
                             "which is not scanned in this join's "
                             "subtree", p.ToString().c_str(), alias));
          }
        }
      }
    }
  }

  void CheckTermRefs(const engine::PhysNode* node, const QualTerm& t,
                     const QualComparison& p) {
    for (const auto& [alias, col] :
         {std::pair<int, const std::string*>{t.alias, &t.col},
          {t.alias2, &t.col2}}) {
      if (alias < 0) continue;
      if (alias >= num_aliases_) {
        Report("alias-range", Desc(node),
               StrPrintf("predicate %s references alias d%d but the "
                         "graph has %d alias(es)", p.ToString().c_str(),
                         alias, num_aliases_));
        continue;
      }
      if (db_.ColumnIndex(*col) < 0) {
        Report("column-ref", Desc(node),
               StrPrintf("predicate %s references unknown doc-relation "
                         "column '%s'", p.ToString().c_str(),
                         col->c_str()));
      }
    }
  }

  /// Category of one side of a hash-join equality key. Numeric-vs-string
  /// disagreement means the build and probe hashes can never collide on
  /// equal values — the join silently returns nothing.
  KeyCat TermCat(const QualTerm& t) const {
    if (t.IsParam()) return KeyCat::kEither;
    bool numeric = false;
    bool stringy = false;
    for (const auto& [alias, col] :
         {std::pair<int, const std::string*>{t.alias, &t.col},
          {t.alias2, &t.col2}}) {
      if (alias < 0) continue;
      const int idx = db_.ColumnIndex(*col);
      if (idx < 0) return KeyCat::kEither;  // reported as column-ref
      switch (db_.Column(idx).tag()) {
        case ColumnTag::kInt:
        case ColumnTag::kDouble:
          numeric = true;
          break;
        case ColumnTag::kString:
        case ColumnTag::kDictString:
          stringy = true;
          break;
        case ColumnTag::kMixed:
          return KeyCat::kEither;
      }
    }
    if (!t.constant.is_null()) {
      if (t.constant.type() == ValueType::kString) {
        stringy = true;
      } else {
        numeric = true;
      }
    }
    // A multi-part term (col + col2, or col + constant) is an arithmetic
    // sum, so any string participant is itself a key-type error.
    const bool is_sum = t.alias2 >= 0 || !t.constant.is_null();
    if (stringy && (numeric || is_sum)) return KeyCat::kString;  // flagged
    if (stringy) return KeyCat::kString;
    if (numeric) return KeyCat::kNumeric;
    return KeyCat::kEither;
  }

  void CheckHashKeys(const engine::PhysNode* node) {
    for (const QualComparison& p : node->preds) {
      if (p.op != algebra::CmpOp::kEq) continue;
      const KeyCat lhs = TermCat(p.lhs);
      const KeyCat rhs = TermCat(p.rhs);
      if ((lhs == KeyCat::kNumeric && rhs == KeyCat::kString) ||
          (lhs == KeyCat::kString && rhs == KeyCat::kNumeric)) {
        Report("hsjoin-key-types", Desc(node),
               StrPrintf("hash-join key %s compares a %s key against a "
                         "%s key — build/probe hashes can never match",
                         p.ToString().c_str(),
                         lhs == KeyCat::kNumeric ? "numeric" : "string",
                         rhs == KeyCat::kNumeric ? "numeric" : "string"));
      }
      // An arithmetic sum over a string column is malformed on its own,
      // whatever the other side is.
      for (const QualTerm* t : {&p.lhs, &p.rhs}) {
        const bool is_sum = t->alias2 >= 0 || !t->constant.is_null();
        if (!is_sum || t->alias < 0) continue;
        const int idx = db_.ColumnIndex(t->col);
        const int idx2 =
            t->alias2 >= 0 ? db_.ColumnIndex(t->col2) : -1;
        const bool str_part =
            (idx >= 0 && (db_.Column(idx).tag() == ColumnTag::kString ||
                          db_.Column(idx).tag() == ColumnTag::kDictString)) ||
            (idx2 >= 0 && (db_.Column(idx2).tag() == ColumnTag::kString ||
                           db_.Column(idx2).tag() == ColumnTag::kDictString));
        if (str_part) {
          Report("hsjoin-key-types", Desc(node),
                 StrPrintf("hash-join key term %s sums over a string "
                           "column", t->ToString().c_str()));
        }
      }
    }
  }

  const engine::PhysicalPlan& plan_;
  const engine::Database& db_;
  const PlanCheckContext& context_;
  const std::string& stage_;
  int num_aliases_ = 0;
  uint32_t scanned_ = 0;
  std::vector<ValidationError> errors_;
};

Status FirstError(std::vector<ValidationError> errors) {
  if (errors.empty()) return Status::OK();
  return errors.front().ToStatus();
}

}  // namespace

std::vector<ValidationError> CheckJoinGraph(const JoinGraph& graph,
                                            const std::string& stage,
                                            int num_params) {
  return GraphChecker(graph, stage, num_params).Run();
}

Status ValidateJoinGraph(const JoinGraph& graph, const std::string& stage,
                         int num_params) {
  return FirstError(CheckJoinGraph(graph, stage, num_params));
}

std::vector<ValidationError> CheckPhysicalPlanErrors(
    const engine::PhysicalPlan& plan, const engine::Database& db,
    const PlanCheckContext& context, const std::string& stage) {
  return PlanChecker(plan, db, context, stage).Run();
}

Status CheckPhysicalPlan(const engine::PhysicalPlan& plan,
                         const engine::Database& db,
                         const PlanCheckContext& context,
                         const std::string& stage) {
  return FirstError(CheckPhysicalPlanErrors(plan, db, context, stage));
}

Status CheckColumnBatch(const engine::columnar::ColumnBatch& batch,
                        const char* site) {
  const auto fail = [&](const char* invariant, std::string detail) {
    return MakeError("execute", invariant, StrPrintf("batch@%s", site),
                     std::move(detail))
        .ToStatus();
  };
  if (batch.schema.size() != batch.cols.size()) {
    return fail("batch-sel",
                StrPrintf("schema has %zu columns but the batch carries "
                          "%zu", batch.schema.size(), batch.cols.size()));
  }
  size_t phys = batch.num_rows;
  for (size_t i = 0; i < batch.cols.size(); ++i) {
    if (!batch.cols[i]) {
      return fail("batch-sel",
                  StrPrintf("column '%s' is null",
                            batch.schema[i].c_str()));
    }
    if (i == 0) {
      phys = batch.cols[i]->size();
    } else if (batch.cols[i]->size() != phys) {
      return fail("batch-sel",
                  StrPrintf("column '%s' has %zu physical rows, column "
                            "'%s' has %zu (columns must share one "
                            "physical length)", batch.schema[i].c_str(),
                            batch.cols[i]->size(),
                            batch.schema[0].c_str(), phys));
    }
  }
  if (batch.sel) {
    const std::vector<uint32_t>& sel = *batch.sel;
    if (sel.size() != batch.num_rows) {
      return fail("batch-sel",
                  StrPrintf("selection vector has %zu entries but "
                            "num_rows is %zu", sel.size(),
                            batch.num_rows));
    }
    for (size_t i = 0; i < sel.size(); ++i) {
      if (sel[i] >= phys) {
        return fail("batch-sel",
                    StrPrintf("selection entry %zu maps to physical row "
                              "%u, past the %zu physical rows", i, sel[i],
                              phys));
      }
      if (i > 0 && sel[i] <= sel[i - 1]) {
        return fail("batch-sel",
                    StrPrintf("selection vector is not strictly "
                              "increasing at entry %zu (%u after %u)", i,
                              sel[i], sel[i - 1]));
      }
    }
  } else if (batch.num_rows != phys && !batch.cols.empty()) {
    return fail("batch-sel",
                StrPrintf("dense batch claims %zu rows but columns hold "
                          "%zu", batch.num_rows, phys));
  }
  return Status::OK();
}

}  // namespace xqjg::opt

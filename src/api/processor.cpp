#include "src/api/processor.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "src/algebra/dag.h"
#include "src/algebra/validate.h"
#include "src/compiler/compile.h"
#include "src/engine/columnar/plan_exec.h"
#include "src/opt/isolate.h"
#include "src/opt/plan_check.h"
#include "src/sql/sqlgen.h"
#include "src/xml/doc_block.h"
#include "src/xml/parser.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"

namespace xqjg::api {

const char* ModeToString(Mode mode) {
  switch (mode) {
    case Mode::kStacked:
      return "stacked";
    case Mode::kJoinGraph:
      return "joingraph";
    case Mode::kNativeWhole:
      return "native-whole";
    case Mode::kNativeSegmented:
      return "native-segmented";
  }
  return "?";
}

bool ResolveValidatePlans(ValidatePlans setting) {
  switch (setting) {
    case ValidatePlans::kOn:
      return true;
    case ValidatePlans::kOff:
      return false;
    case ValidatePlans::kAuto:
      break;
  }
#ifndef NDEBUG
  return true;
#else
  const char* env = std::getenv("XQJG_VALIDATE_PLANS");
  return env && *env && std::string(env) != "0";
#endif
}

namespace {

/// doc(...) URIs referenced by a normalized Core expression — after
/// normalization every path is anchored at an explicit kDoc node (the
/// context document included), so this is the query's touched-doc set.
void CollectDocUris(const xquery::Expr& e, std::set<std::string>* out) {
  if (e.kind == xquery::ExprKind::kDoc) out->insert(e.str);
  if (e.a) CollectDocUris(*e.a, out);
  if (e.b) CollectDocUris(*e.b, out);
}

/// The relational indexes a physical plan actually probes — its kIxScan
/// nodes. This is the plan's true index footprint; the cache staleness
/// check intersects on it instead of evicting on every index-set change.
void CollectUsedIndexes(const engine::PhysNode* node,
                        std::map<std::string, std::string>* out) {
  if (!node) return;
  if (node->kind == engine::PhysKind::kIxScan && node->index) {
    (*out)[node->index->def.name] = node->index->def.ToString();
  }
  CollectUsedIndexes(node->left.get(), out);
  CollectUsedIndexes(node->right.get(), out);
}

}  // namespace

XQueryProcessor::XQueryProcessor() {
  auto init = std::make_shared<CatalogSnapshot>();
  init->whole_store = std::make_shared<native::DocumentStore>();
  init->segmented_store = std::make_shared<native::DocumentStore>();
  snapshot_ = std::move(init);
}

std::shared_ptr<const CatalogSnapshot> XQueryProcessor::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void XQueryProcessor::PublishLocked(
    std::shared_ptr<const CatalogSnapshot> next) {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    // Generation is published inside the swap lock: a reader that
    // observed the new snapshot must never read an older generation.
    generation_.store(next->generation, std::memory_order_release);
    snapshot_ = next;
  }
  // Per-document invalidation: only entries whose touched catalog objects
  // changed fall out; everything else keeps serving from its pinned
  // snapshot (pointer-identical artifacts on re-Prepare).
  plan_cache_.EvictIf([&next](const PreparedQuery& pq) {
    return !ServableAgainst(pq, *next);
  });
}

bool XQueryProcessor::ServableAgainst(const PreparedQuery& pq,
                                      const CatalogSnapshot& current) {
  if (!pq.catalog) return false;
  if (pq.catalog->generation == current.generation) return true;
  if (pq.uses_relational_indexes &&
      pq.catalog->index_epoch != current.index_epoch) {
    // Index DDL happened since Prepare. The artifact survives iff every
    // index its plan probes still exists with an identical definition —
    // creating or dropping an UNRELATED index must not evict it. A plan
    // that probes none (or compiled without a physical plan) stays on the
    // old blanket rule: it was costed against the old index set, and a
    // new index could make a better plan available. The check is gated on
    // the epoch (not run on every mutation) because document loads reset
    // the index set without bumping the epoch: pinned plans keep their
    // own indexes across loads by contract.
    if (pq.used_indexes.empty()) return false;
    for (const auto& [name, def] : pq.used_indexes) {
      auto it = current.index_defs.find(name);
      if (it == current.index_defs.end() || it->second != def) return false;
    }
  }
  if (pq.uses_pattern_indexes &&
      pq.catalog->pattern_epoch != current.pattern_epoch) {
    return false;
  }
  for (const auto& [uri, epoch] : pq.touched_docs) {
    if (current.DocEpoch(uri) != epoch) return false;
  }
  return true;
}

Status XQueryProcessor::LoadDocument(
    const std::string& uri, const std::string& xml_text,
    const std::set<std::string>& segment_tags) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  const std::shared_ptr<const CatalogSnapshot> cur = snapshot();
  // Parse into a fresh scratch table first: a malformed document must
  // leave the published catalog untouched. This single parse is also the
  // validation every deferred build (lazy doc relation, lazy native DOM)
  // relies on — they all share the scanner — and, when the predecessor
  // already materialized its shared block, the scratch rows splice into
  // it below without parsing again.
  xml::DocTable scratch;
  XQJG_RETURN_NOT_OK(xml::LoadDocument(&scratch, uri, xml_text));
  if (!segment_tags.empty()) {
    // Segment roots are validated eagerly (the native segmented build is
    // deferred): loading with tags that match nothing is a load error,
    // not a latent first-query abort.
    bool found = false;
    for (int64_t p = 0; p < scratch.row_count() && !found; ++p) {
      found = scratch.kind(p) == xml::NodeKind::kElem &&
              segment_tags.count(scratch.name(p)) > 0;
    }
    if (!found) {
      return Status::InvalidArgument("no segment roots found for document " +
                                     uri);
    }
  }
  auto text = std::make_shared<const std::string>(xml_text);

  // Native stores: share every other document's entry (and its
  // already-built DOM), replace only this URI. The new entry is lazy —
  // its tree parses from the retained text on first native use.
  auto whole = std::make_shared<native::DocumentStore>(*cur->whole_store);
  auto segmented =
      std::make_shared<native::DocumentStore>(*cur->segmented_store);
  whole->RemoveUri(uri);
  segmented->RemoveUri(uri);
  XQJG_RETURN_NOT_OK(whole->AddLazy(uri, text));
  if (!segment_tags.empty()) {
    XQJG_RETURN_NOT_OK(segmented->AddLazy(uri, text, segment_tags));
  }

  // Retained sources, load order preserved, this URI replaced-or-added
  // (text shared across snapshots). The doc relation and the relational
  // database derive from these lazily — a burst of loads builds neither.
  const bool reload = cur->doc_epochs.count(uri) > 0;
  auto sources =
      std::make_shared<std::vector<CatalogSnapshot::DocSource>>(*cur->sources);
  if (reload) {
    for (auto& s : *sources) {
      if (s.uri == uri) s.xml = text;
    }
  } else {
    sources->push_back(CatalogSnapshot::DocSource{uri, std::move(text)});
  }

  auto next = std::make_shared<CatalogSnapshot>();
  next->generation = cur->generation + 1;
  next->doc_epochs = cur->doc_epochs;
  next->doc_epochs[uri] = reload ? cur->doc_epochs.at(uri) + 1 : 0;
  // Historical contract: loading a document resets the relational index
  // set (callers re-create it) and the native pattern indexes. The epoch
  // stays — plans over other documents keep their pinned indexes.
  next->index_epoch = cur->index_epoch;
  next->pattern_epoch = cur->pattern_epoch;
  next->sources = std::move(sources);
  next->whole_store = whole;
  next->segmented_store = segmented;
  next->whole_engine = std::make_shared<native::NativeEngine>(whole.get());
  next->segmented_engine =
      std::make_shared<native::NativeEngine>(segmented.get());
  // If the predecessor already materialized its shared block, derive the
  // successor's block from it incrementally — the scratch rows splice in
  // while every other document's column runs are copied verbatim (and
  // the dictionaries stay shared). Appending a NEW document extends the
  // block; a RELOAD rebuilds only the replaced run (pre ranks after it
  // shift by the size delta). Either way the alternative — a full
  // re-parse of every retained source on next relational use — is
  // avoided, so load/Prepare alternation never goes quadratic in parse
  // work. A burst of loads before any relational use stays fully lazy.
  {
    std::shared_ptr<const xml::DocTable> prev_table;
    {
      std::lock_guard<std::mutex> table_lock(cur->doc_slot->mu);
      prev_table = cur->doc_slot->table;
    }
    if (prev_table && prev_table->block()) {
      std::shared_ptr<const xml::DocBlock> block =
          reload ? xml::DocBlock::Reload(prev_table->block(), scratch, uri)
                 : xml::DocBlock::Append(prev_table->block(), scratch, uri);
      next->doc_slot->table = std::make_shared<const xml::DocTable>(
          xml::DocTable::FromBlock(std::move(block)));  // not yet published
    }
  }
  PublishLocked(std::move(next));
  return Status::OK();
}

Status XQueryProcessor::CreateRelationalIndexes(
    const std::vector<engine::IndexDef>& defs) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  const std::shared_ptr<const CatalogSnapshot> cur = snapshot();
  // Copy-on-write: the copy shares the doc-relation storage and every
  // already-built index with the published database.
  auto db = std::make_shared<engine::Database>(*cur->relational_db());
  for (const auto& def : defs) {
    XQJG_RETURN_NOT_OK(db->CreateIndex(def));
  }
  auto next = std::make_shared<CatalogSnapshot>(*cur);
  next->generation = cur->generation + 1;
  next->index_epoch = cur->index_epoch + 1;
  next->index_defs.clear();
  for (const auto& idx : db->indexes()) {
    next->index_defs[idx->def.name] = idx->def.ToString();
  }
  next->db_slot = std::make_shared<CatalogSnapshot::DatabaseSlot>();
  next->db_slot->db = std::move(db);
  PublishLocked(std::move(next));
  return Status::OK();
}

void XQueryProcessor::DropRelationalIndexes() {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  const std::shared_ptr<const CatalogSnapshot> cur = snapshot();
  auto db = std::make_shared<engine::Database>(*cur->relational_db());
  db->DropAllIndexes();
  auto next = std::make_shared<CatalogSnapshot>(*cur);
  next->generation = cur->generation + 1;
  next->index_epoch = cur->index_epoch + 1;
  next->index_defs.clear();
  next->db_slot = std::make_shared<CatalogSnapshot::DatabaseSlot>();
  next->db_slot->db = std::move(db);
  PublishLocked(std::move(next));
}

void XQueryProcessor::CreatePatternIndex(native::XmlPattern pattern) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  const std::shared_ptr<const CatalogSnapshot> cur = snapshot();
  auto next = std::make_shared<CatalogSnapshot>(*cur);
  next->generation = cur->generation + 1;
  if (cur->whole_engine) {
    next->pattern_epoch = cur->pattern_epoch + 1;
    // Engines are immutable once published: build replacements over the
    // SAME stores, adopting the already-built (immutable) indexes so
    // K declarations cost K builds, not K^2.
    auto whole =
        std::make_shared<native::NativeEngine>(cur->whole_store.get());
    auto segmented =
        std::make_shared<native::NativeEngine>(cur->segmented_store.get());
    for (const auto& idx : cur->whole_engine->indexes()) {
      whole->AdoptIndex(idx);
    }
    for (const auto& idx : cur->segmented_engine->indexes()) {
      segmented->AdoptIndex(idx);
    }
    whole->CreateIndex(pattern);
    segmented->CreateIndex(std::move(pattern));
    next->whole_engine = std::move(whole);
    next->segmented_engine = std::move(segmented);
  }
  PublishLocked(std::move(next));
}

Result<std::shared_ptr<const PreparedQuery>> XQueryProcessor::Prepare(
    const std::string& query, const PrepareOptions& options) const {
  const std::shared_ptr<const CatalogSnapshot> cur = snapshot();
  const std::string key = PlanCache::MakeKey(query, options);
  // A cached artifact is returned only while it is still servable against
  // the current catalog — a stale entry (e.g. compiled concurrently with
  // a mutation) recompiles and overwrites itself.
  auto stale = [&cur](const PreparedQuery& pq) {
    return !ServableAgainst(pq, *cur);
  };
  if (auto cached = plan_cache_.Lookup(key, stale)) return cached;
  XQJG_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> prepared,
                        PrepareUncached(query, options, cur));
  plan_cache_.Insert(key, prepared);
  return prepared;
}

Result<std::shared_ptr<const PreparedQuery>> XQueryProcessor::PrepareUncached(
    const std::string& query, const PrepareOptions& options,
    const std::shared_ptr<const CatalogSnapshot>& snapshot) const {
  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  // Seconds since `*mark`, which moves to now.
  auto lap = [](Clock::time_point* mark) {
    const Clock::time_point now = Clock::now();
    const double seconds = std::chrono::duration<double>(now - *mark).count();
    *mark = now;
    return seconds;
  };
  auto out = std::make_shared<PreparedQuery>();
  CompileDiagnostics::StageSeconds& stages = out->diagnostics.stage_seconds;
  out->query_text = query;
  out->options = options;
  out->catalog = snapshot;
  out->catalog_generation = snapshot->generation;

  Clock::time_point mark = Clock::now();
  XQJG_ASSIGN_OR_RETURN(xquery::ExprPtr ast, xquery::Parse(query));
  stages.parse = lap(&mark);
  xquery::NormalizeOptions norm_options;
  norm_options.context_document = options.context_document;
  XQJG_ASSIGN_OR_RETURN(out->core, xquery::Normalize(ast, norm_options));
  stages.normalize = lap(&mark);

  // Touched-catalog metadata: the documents the query reads (with their
  // current epochs) and which index sets the mode consults. This is what
  // per-document cache invalidation and the Execute staleness check use.
  std::set<std::string> uris;
  CollectDocUris(*out->core, &uris);
  for (const std::string& uri : uris) {
    out->touched_docs[uri] = snapshot->DocEpoch(uri);
  }
  out->uses_relational_indexes = options.mode == Mode::kJoinGraph;
  out->uses_pattern_indexes = options.mode == Mode::kNativeWhole ||
                              options.mode == Mode::kNativeSegmented;
  out->parameters = xquery::CollectParams(*out->core);

  // Stage-boundary plan verification (src/algebra/validate.h): on, every
  // compiled plan is checked right after the stage that built it, so a
  // broken plan is rejected at the boundary that broke it.
  const bool validate = ResolveValidatePlans(options.validate_plans);
  int num_params = 0;
  for (const auto& decl : out->parameters) {
    num_params = std::max(num_params, decl.slot + 1);
  }
  algebra::ValidateOptions vopts;
  vopts.num_params = num_params;

  auto finish = [&]() -> std::shared_ptr<const PreparedQuery> {
    out->compile_seconds =
        std::chrono::duration<double>(Clock::now() - started).count();
    return out;
  };

  if (options.mode == Mode::kNativeWhole ||
      options.mode == Mode::kNativeSegmented) {
    // The native engine interprets the Core AST directly: compilation
    // stops after normalization.
    return finish();
  }

  // Relational modes: compile to the stacked table-algebra plan.
  compiler::CompileOptions copts;
  copts.explicit_serialization_step = options.explicit_serialization_step;
  mark = Clock::now();
  XQJG_ASSIGN_OR_RETURN(out->stacked, compiler::CompileQuery(out->core, copts));
  stages.compile = lap(&mark);
  out->diagnostics.ops_stacked = algebra::CountOps(out->stacked);
  if (validate) {
    XQJG_RETURN_NOT_OK(algebra::Validate(out->stacked, "compile", vopts));
  }

  if (options.mode == Mode::kStacked) {
    auto sql = sql::EmitStackedCte(out->stacked);
    if (sql.ok()) out->sql = sql.value();
    return finish();
  }

  // Join-graph mode: isolate, extract, and cost-based plan.
  mark = Clock::now();
  XQJG_ASSIGN_OR_RETURN(opt::IsolationResult iso, opt::Isolate(out->stacked));
  stages.isolate = lap(&mark);
  out->isolated = iso.isolated;
  out->diagnostics.rule_counts = std::move(iso.rule_counts);
  out->diagnostics.ops_isolated = iso.ops_after;
  out->diagnostics.ranks_after = iso.ranks_after;
  out->diagnostics.distincts_after = iso.distincts_after;
  if (validate) {
    XQJG_RETURN_NOT_OK(algebra::Validate(out->isolated, "isolate", vopts));
  }

  mark = Clock::now();
  auto graph = opt::ExtractJoinGraph(out->isolated);
  stages.extract = lap(&mark);
  if (graph.ok()) {
    auto owned = std::make_unique<opt::JoinGraph>(std::move(graph).value());
    if (validate) {
      XQJG_RETURN_NOT_OK(
          opt::ValidateJoinGraph(*owned, "extract", num_params));
    }
    out->sql = sql::EmitJoinGraphSql(*owned);
    engine::PlannerOptions popts;
    popts.syntactic_order = options.syntactic_join_order;
    mark = Clock::now();
    XQJG_ASSIGN_OR_RETURN(
        out->plan,
        engine::PlanJoinGraph(*owned, *snapshot->relational_db(), popts));
    out->graph = std::move(owned);  // plan.graph points into *graph
    XQJG_ASSIGN_OR_RETURN(out->lowered,
                          engine::columnar::LowerPlan(out->plan));
    stages.plan = lap(&mark);
    out->has_plan = true;
    out->explain = engine::ExplainPlan(out->plan);
    CollectUsedIndexes(out->plan.root.get(), &out->used_indexes);
    if (validate) {
      opt::PlanCheckContext pctx;
      pctx.catalog_index_defs = &snapshot->index_defs;
      pctx.used_indexes = &out->used_indexes;
      pctx.num_params = num_params;
      XQJG_RETURN_NOT_OK(opt::CheckPhysicalPlan(
          out->plan, *snapshot->relational_db(), pctx, "plan"));
    }
  } else {
    // Residual blocking operators (deeply nested FLWOR): execution will
    // run the isolated DAG directly — still drastically fewer blocking
    // operators than the stacked plan (see DESIGN.md).
    out->used_fallback = true;
    auto sql = sql::EmitStackedCte(out->isolated);
    if (sql.ok()) out->sql = sql.value();
  }
  return finish();
}

Result<std::unique_ptr<ResultCursor>> XQueryProcessor::Execute(
    std::shared_ptr<const PreparedQuery> prepared,
    const ExecuteOptions& options) const {
  if (!prepared) return Status::InvalidArgument("null PreparedQuery");
  if (!prepared->catalog) {
    return Status::InvalidArgument(
        "PreparedQuery carries no catalog snapshot (not produced by "
        "Prepare)");
  }
  const std::shared_ptr<const CatalogSnapshot> current = snapshot();
  if (!ServableAgainst(*prepared, *current)) {
    return Status::InvalidArgument(
        "stale PreparedQuery: a document or index set it touches changed "
        "since Prepare (re-Prepare against the current catalog)");
  }
  const CatalogSnapshot& cat = *prepared->catalog;
  if (prepared->options.mode == Mode::kNativeWhole ||
      prepared->options.mode == Mode::kNativeSegmented) {
    const native::NativeEngine* engine =
        prepared->options.mode == Mode::kNativeWhole
            ? cat.whole_engine.get()
            : cat.segmented_engine.get();
    if (!engine) return Status::InvalidArgument("no documents loaded");
  }

  // Resolve parameter bindings (by name) into the slot vector the
  // executors consume. Every referenced parameter must be bound; every
  // binding must name a referenced parameter.
  std::vector<Value> params;
  if (!prepared->parameters.empty() || !options.parameters.empty()) {
    int max_slot = -1;
    for (const auto& decl : prepared->parameters) {
      max_slot = std::max(max_slot, decl.slot);
    }
    params.assign(static_cast<size_t>(max_slot + 1), Value::Null());
    std::set<std::string> declared;
    for (const auto& decl : prepared->parameters) {
      declared.insert(decl.name);
      auto it = options.parameters.find(decl.name);
      if (it == options.parameters.end()) {
        return Status::InvalidArgument("missing value for parameter $" +
                                       decl.name);
      }
      const Value& v = it->second;
      if (!v.is_null()) {
        if (decl.numeric && !v.IsNumeric()) {
          return Status::InvalidArgument(
              "parameter $" + decl.name +
              " is declared numeric; bind an int or double value");
        }
        if (!decl.numeric && v.type() != ValueType::kString) {
          return Status::InvalidArgument(
              "parameter $" + decl.name +
              " is declared xs:string; bind a string value");
        }
      }
      params[static_cast<size_t>(decl.slot)] = v;
    }
    for (const auto& [name, value] : options.parameters) {
      (void)value;
      if (!declared.count(name)) {
        return Status::InvalidArgument(
            "unknown parameter $" + name +
            " (not declared external, or never referenced by the query)");
      }
    }
  }
  return std::unique_ptr<ResultCursor>(
      // ResultCursor's constructor is private (Execute is its only maker),
      // so make_unique cannot reach it.  xqjg-lint: allow(raw-alloc)
      new ResultCursor(std::move(prepared), options, std::move(params)));
}

Result<RunResult> XQueryProcessor::ExecuteAll(
    std::shared_ptr<const PreparedQuery> prepared,
    const ExecuteOptions& options) const {
  XQJG_ASSIGN_OR_RETURN(std::unique_ptr<ResultCursor> cursor,
                        Execute(std::move(prepared), options));
  RunResult result;
  XQJG_ASSIGN_OR_RETURN(result.items, cursor->FetchAll());
  const ExecutionStats& stats = cursor->stats();
  result.seconds = stats.execute_seconds + stats.fetch_seconds;
  const PreparedQuery& pq = cursor->prepared();
  result.compile_seconds = pq.compile_seconds;
  result.sql = pq.sql;
  result.explain = pq.explain;
  result.used_fallback = pq.used_fallback;
  return result;
}

Result<RunResult> XQueryProcessor::Run(const std::string& query,
                                       const RunOptions& options) {
  PrepareOptions popts;
  popts.mode = options.mode;
  popts.context_document = options.context_document;
  popts.syntactic_join_order = options.syntactic_join_order;
  popts.explicit_serialization_step = options.explicit_serialization_step;
  popts.validate_plans = options.validate_plans;
  const auto prepare_started = std::chrono::steady_clock::now();
  XQJG_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> prepared,
                        Prepare(query, popts));
  const double prepare_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    prepare_started)
          .count();
  ExecuteOptions eopts;
  eopts.limits.timeout_seconds = options.timeout_seconds;
  eopts.threads = options.threads;
  eopts.parameters = options.parameters;
  XQJG_ASSIGN_OR_RETURN(RunResult result,
                        ExecuteAll(std::move(prepared), eopts));
  // What this call paid for compilation: the full pipeline on a cache
  // miss, a lookup on a hit.
  result.compile_seconds = prepare_seconds;
  return result;
}

}  // namespace xqjg::api

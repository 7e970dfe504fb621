// XQueryProcessor — the library's public facade.
//
// Load XML documents once, then compile XQuery text into immutable
// PreparedQuery artifacts and execute them — repeatedly, concurrently,
// streaming — through any of the four execution modes the paper's
// Table IX compares:
//   kStacked         compile only, execute the stacked plan (staged,
//                    materializing — DB2 on Pathfinder's unrewritten SQL)
//   kJoinGraph       compile + join graph isolation + cost-based relational
//                    execution over B-tree indexes (the paper's approach)
//   kNativeWhole     pureXML™-style native engine over the monolithic doc
//   kNativeSegmented same engine over the segmented store
//
// Lifecycle (mirroring the paper's front-end / back-end split):
//   Prepare(query, PrepareOptions)  -> shared_ptr<const PreparedQuery>
//   Execute(prepared, ExecuteOptions) -> ResultCursor (batched FetchNext)
//   ExecuteAll(prepared)            -> RunResult (full materialization)
//   Run(query, RunOptions)          -> compatibility shim: Prepare via the
//                                      LRU plan cache, then ExecuteAll.
//
// Parameterized queries: a prolog `declare variable $x external;`
// (optionally `as xs:string|xs:integer|xs:decimal|xs:double`) turns $x
// into a parameter marker. One Prepare (one cached plan) then serves the
// whole literal family — each Execute binds values via
// ExecuteOptions::parameters. The relational modes (stacked, and
// join-graph with an isolatable plan) substitute the bindings into their
// compiled qualifiers at execute time; the native modes bind them into a
// literal Core tree per execution (xquery::BindParams — their engine
// interprets literals directly), sharing every unchanged subtree with
// the cached artifact.
//
// Threading contract: the catalog is a shared-ownership snapshot
// (CatalogSnapshot) behind an atomic swap. Mutators (LoadDocument,
// Create*/Drop* index) serialize among themselves and publish a NEW
// snapshot copy-on-write — they never touch the snapshot in-flight work
// pins. Prepare, Execute, ExecuteAll, Run, and open ResultCursors are
// safe to call from any number of threads concurrently with each other
// AND with mutators: an execution drains against the snapshot its
// PreparedQuery pinned, so catalog mutation requires no draining of
// in-flight executions. Execute re-checks only the catalog objects the
// artifact touches (per-document epochs + the index set) and rejects the
// artifact as stale when one of them changed — re-Prepare to pick up the
// new catalog.
#ifndef XQJG_API_PROCESSOR_H_
#define XQJG_API_PROCESSOR_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/api/catalog.h"
#include "src/api/cursor.h"
#include "src/api/plan_cache.h"
#include "src/api/prepared_query.h"
#include "src/common/status.h"
#include "src/common/value.h"
#include "src/engine/database.h"
#include "src/native/xscan.h"

namespace xqjg::api {

/// Options of the one-shot Run shim: the PrepareOptions fields plus the
/// execution-time knobs (Run splits them internally).
struct RunOptions {
  Mode mode = Mode::kJoinGraph;
  /// Wall-clock DNF budget in seconds (<= 0: unlimited).
  double timeout_seconds = -1.0;
  /// Document substituted for absolute paths ("/site/...").
  std::string context_document;
  /// Disable cost-based join ordering (ablation).
  bool syntactic_join_order = false;
  /// Append the explicit serialization step (paper §IV).
  bool explicit_serialization_step = false;
  /// Stage-boundary plan verification (see PrepareOptions).
  ValidatePlans validate_plans = ValidatePlans::kAuto;
  /// Morsel workers for the columnar executors (1 = serial; ignored by
  /// the native lanes — see ExecuteOptions::threads).
  int threads = 1;
  /// Values for external parameters, by name (see ExecuteOptions).
  std::map<std::string, Value> parameters;
};

struct RunResult {
  std::vector<std::string> items;  ///< serialized result nodes, in order

  /// Result cardinality. `items` is the single source of truth — this is
  /// a view of it, so materialized counts cannot drift from cursor-based
  /// counts (ResultCursor reports the same value via stats().rows_total).
  size_t result_count() const { return items.size(); }

  /// Query execution time (what the paper's Table IX reports — Pathfinder
  /// compiles/isolates before shipping, so compile time is separate).
  double seconds = 0.0;
  /// Time spent in the Prepare phase of this call — full compilation on a
  /// plan-cache miss, a cache lookup on a hit.
  double compile_seconds = 0.0;
  std::string sql;      ///< shipped SQL (join graph block or CTE chain)
  std::string explain;  ///< physical plan (join-graph mode)
  bool used_fallback = false;  ///< ran the isolated DAG on the columnar
                               ///< batch executor (extraction not
                               ///< possible)
};

class XQueryProcessor {
 public:
  XQueryProcessor();

  /// Parses and registers a document under `uri` in every storage layout;
  /// re-loading an existing `uri` replaces its content (and bumps its
  /// epoch, invalidating exactly the plans that touch it). Publishes a
  /// new catalog snapshot; open cursors and plans over other documents
  /// are untouched. Mirrors the historical contract in one respect:
  /// loading a document resets the relational index set (re-create it
  /// with CreateRelationalIndexes) and the native pattern indexes.
  Status LoadDocument(const std::string& uri, const std::string& xml_text,
                      const std::set<std::string>& segment_tags = {});

  /// Creates the given relational index set (default: Table VI) in a new
  /// snapshot (copy-on-write: doc storage and prior indexes are shared).
  /// Evicts/invalidates join-graph plans — they consult the index set.
  Status CreateRelationalIndexes(
      const std::vector<engine::IndexDef>& defs = engine::TableVIIndexes());
  void DropRelationalIndexes();

  /// Declares a native XMLPATTERN index (rebuilt into a new snapshot).
  void CreatePatternIndex(native::XmlPattern pattern);

  /// Compiles `query` into an immutable PreparedQuery, consulting the LRU
  /// plan cache first (keyed by query text + options; only successful
  /// compilations are cached, and a cached artifact is revalidated
  /// against the current catalog before being returned). Parse/normalize
  /// for native modes; parse/normalize/compile (+ isolate + extract +
  /// plan for kJoinGraph) for the relational ones. Thread-safe, including
  /// concurrently with catalog mutators.
  Result<std::shared_ptr<const PreparedQuery>> Prepare(
      const std::string& query, const PrepareOptions& options = {}) const;

  /// Opens a streaming cursor over one execution of `prepared`. The
  /// cursor pins the snapshot the artifact was compiled against, so it
  /// stays valid across catalog mutations. Fails with InvalidArgument if
  /// a catalog object the artifact touches changed since Prepare (stale),
  /// or if parameter bindings don't match the query's declarations.
  Result<std::unique_ptr<ResultCursor>> Execute(
      std::shared_ptr<const PreparedQuery> prepared,
      const ExecuteOptions& options = {}) const;

  /// Convenience: Execute + drain the cursor into a RunResult (full
  /// materialization — today's Run semantics).
  Result<RunResult> ExecuteAll(std::shared_ptr<const PreparedQuery> prepared,
                               const ExecuteOptions& options = {}) const;

  /// One-shot compatibility shim: Prepare through the LRU plan cache,
  /// then ExecuteAll. Identical items / order / SQL / explain to the
  /// pre-cache facade; repeated calls pay compilation once.
  Result<RunResult> Run(const std::string& query, const RunOptions& options);

  /// Plan-cache observability and control. Capacity 0 disables caching.
  PlanCache::Stats plan_cache_stats() const { return plan_cache_.stats(); }
  void set_plan_cache_capacity(size_t capacity) {
    plan_cache_.set_capacity(capacity);
  }
  void ClearPlanCache() { plan_cache_.Clear(); }

  /// Monotonic catalog version; bumped by every document/index mutation.
  uint64_t catalog_generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// The current catalog snapshot (shared ownership: safe to keep across
  /// mutations — it simply stops being current).
  std::shared_ptr<const CatalogSnapshot> snapshot() const;

  /// Views into the CURRENT snapshot (forcing the lazy doc-relation /
  /// database build if needed). The references/pointers stay valid until
  /// the next catalog mutation on this processor; hold snapshot()
  /// instead when mutations may run concurrently.
  const xml::DocTable& doc_table() const { return *snapshot()->doc_table(); }
  const engine::Database* database() const {
    return snapshot()->relational_db().get();
  }

 private:
  /// True while every catalog object `pq` touches is unchanged in
  /// `current` — the single staleness predicate shared by Execute, the
  /// plan-cache revalidation, and per-mutation eviction.
  static bool ServableAgainst(const PreparedQuery& pq,
                              const CatalogSnapshot& current);

  Result<std::shared_ptr<const PreparedQuery>> PrepareUncached(
      const std::string& query, const PrepareOptions& options,
      const std::shared_ptr<const CatalogSnapshot>& snapshot) const;

  /// Publishes `next` as the current snapshot and evicts cache entries no
  /// longer servable against it. Caller holds mutation_mu_.
  void PublishLocked(std::shared_ptr<const CatalogSnapshot> next);

  /// Serializes mutators (LoadDocument, index DDL).
  std::mutex mutation_mu_;
  /// Guards the snapshot pointer swap (readers copy under this lock).
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const CatalogSnapshot> snapshot_;
  /// Mirror of snapshot_->generation for lock-free reads.
  std::atomic<uint64_t> generation_{0};

  mutable PlanCache plan_cache_;
};

}  // namespace xqjg::api

#endif  // XQJG_API_PROCESSOR_H_

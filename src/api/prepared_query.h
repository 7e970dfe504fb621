// The compiled half of the prepare/execute lifecycle.
//
// The paper's architecture splits query processing into a front-end phase
// (XQuery compilation + join graph isolation, §II–III) whose output — an
// isolated join graph / SQL block — is shipped to a relational back-end
// and executed repeatedly. PreparedQuery is that shipped artifact: an
// immutable snapshot of everything the front end produced, so compilation
// is paid once and any number of executions (including concurrent ones)
// amortize it.
#ifndef XQJG_API_PREPARED_QUERY_H_
#define XQJG_API_PREPARED_QUERY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/algebra/operators.h"
#include "src/api/catalog.h"
#include "src/engine/columnar/columnar_exec.h"
#include "src/engine/planner.h"
#include "src/opt/join_graph.h"
#include "src/xquery/ast.h"

namespace xqjg::api {

/// The four execution modes the paper's Table IX compares.
enum class Mode { kStacked, kJoinGraph, kNativeWhole, kNativeSegmented };

const char* ModeToString(Mode mode);

/// Whether Prepare runs the static plan verifier (src/algebra/validate.h
/// + src/opt/plan_check.h) at every compilation stage boundary. kAuto
/// resolves to ON in Debug builds and whenever XQJG_VALIDATE_PLANS=1 is
/// set in the environment (the test suite forces that, so Release test
/// runs validate too), OFF otherwise — production Release prepares pay
/// nothing unless they opt in.
enum class ValidatePlans { kAuto, kOn, kOff };

/// Resolves kAuto against the build type and environment (see above).
bool ResolveValidatePlans(ValidatePlans setting);

/// Everything that influences *compilation* (and therefore the plan-cache
/// key). Execution-time knobs — DNF budgets, worker threads — live in
/// ExecuteOptions instead: they select how a plan is run, not which plan
/// is built, so executions under any budget share one cached plan.
struct PrepareOptions {
  Mode mode = Mode::kJoinGraph;
  /// Document substituted for absolute paths ("/site/...").
  std::string context_document;
  /// Disable cost-based join ordering (ablation).
  bool syntactic_join_order = false;
  /// Append the explicit serialization step (paper §IV).
  bool explicit_serialization_step = false;
  /// Stage-boundary plan verification (see ValidatePlans above). Part of
  /// the plan-cache key: a validated and an unvalidated artifact are
  /// interchangeable plans, but a cache hit must not silently skip the
  /// verification the caller asked for.
  ValidatePlans validate_plans = ValidatePlans::kAuto;
};

/// Compile-time observability: what the front end did to the query.
struct CompileDiagnostics {
  /// Isolation rule name -> application count (join-graph mode).
  std::map<std::string, int> rule_counts;
  /// Operator counts before/after isolation (the Fig. 4 / Fig. 7 shrink).
  size_t ops_stacked = 0;
  size_t ops_isolated = 0;
  /// Blocking operators surviving isolation (ϱ / δ).
  size_t ranks_after = 0;
  size_t distincts_after = 0;
  /// Wall time of each front-end stage of Prepare, in seconds; 0 for the
  /// stages a mode skips. `plan` is join ordering plus lowering onto the
  /// batch pipeline. Validation, SQL text and EXPLAIN rendering are in no
  /// stage, so the sum is at most PreparedQuery::compile_seconds.
  struct StageSeconds {
    double parse = 0.0;
    double normalize = 0.0;
    double compile = 0.0;
    double isolate = 0.0;
    double extract = 0.0;
    double plan = 0.0;
  };
  StageSeconds stage_seconds;
};

/// An immutable compiled query: normalized Core AST, compiled plans, the
/// isolated join graph with its chosen physical plan, shipped SQL, and
/// compile-time diagnostics. Created by XQueryProcessor::Prepare, handed
/// out as shared_ptr<const PreparedQuery>; nothing mutates it afterwards,
/// so N threads may Execute the same instance simultaneously.
///
/// A PreparedQuery pins the catalog snapshot it was compiled against
/// (`catalog`), so its plan pointers (database columns, indexes, native
/// stores) stay valid for as long as the artifact lives — catalog
/// mutations publish new snapshots instead of touching pinned ones.
/// Execute accepts the artifact while every catalog object it touches
/// (`touched_docs`, plus the index set for the modes that consult it) is
/// unchanged in the current catalog; otherwise it rejects with
/// InvalidArgument and the caller re-Prepares.
struct PreparedQuery {
  std::string query_text;
  PrepareOptions options;

  /// Normalized Core AST (all modes; the native engine executes this).
  xquery::ExprPtr core;
  /// Compiled stacked plan (relational modes).
  algebra::OpPtr stacked;
  /// Isolated plan DAG (join-graph mode; executed directly on fallback).
  algebra::OpPtr isolated;
  /// Extracted join graph — heap-allocated because `plan` points into it.
  std::unique_ptr<const opt::JoinGraph> graph;
  /// Cost-based physical join tree over `graph` (join-graph mode, no
  /// fallback).
  engine::PhysicalPlan plan;
  /// `plan` lowered onto the batch pipeline once, at Prepare; every
  /// execution runs it (columnar::OpenSequenceStreamColumnar).
  std::shared_ptr<const engine::columnar::LoweredPlan> lowered;
  bool has_plan = false;
  /// The isolated DAG runs on the columnar batch executor (extraction
  /// not possible — residual blocking operators).
  bool used_fallback = false;

  std::string sql;      ///< shipped SQL (join graph block or CTE chain)
  std::string explain;  ///< physical plan (join-graph mode)
  /// Parse + normalize + compile + isolate + extract + plan time.
  double compile_seconds = 0.0;
  CompileDiagnostics diagnostics;

  /// The catalog snapshot this artifact was compiled against — pinned so
  /// executions (and the plan pointers above) never dangle.
  std::shared_ptr<const CatalogSnapshot> catalog;
  /// Processor catalog generation this artifact was compiled against
  /// (== catalog->generation; kept as a plain field for observability).
  uint64_t catalog_generation = 0;

  /// Documents the query touches (doc(...) URIs in the normalized Core,
  /// which includes the substituted context document), with the epoch
  /// each had at Prepare (kDocAbsent when not loaded). The plan cache
  /// evicts, and Execute rejects, only when one of THESE changed.
  std::map<std::string, uint64_t> touched_docs;
  /// Join-graph mode consults the relational index set during planning;
  /// such artifacts are invalidated by index DDL.
  bool uses_relational_indexes = false;
  /// The relational indexes the chosen physical plan actually probes
  /// (name -> IndexDef::ToString(), collected from its kIxScan nodes).
  /// After index DDL the artifact stays servable while every entry here
  /// is still present with an identical definition — creating or dropping
  /// an index the plan never touches does not invalidate it.
  std::map<std::string, std::string> used_indexes;
  /// Native modes consult the XMLPATTERN index set during execution.
  bool uses_pattern_indexes = false;

  /// External parameters the query references ($x declared external in
  /// the prolog), ordered by binding slot. ExecuteOptions must bind every
  /// entry by name; one cached plan serves the whole literal family.
  std::vector<xquery::ParamDecl> parameters;
};

}  // namespace xqjg::api

#endif  // XQJG_API_PREPARED_QUERY_H_

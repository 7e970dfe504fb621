// Query families, their request texts, the answer oracle, and the
// traced compile/execute pipeline.
//
// A family is one query shape: the paper's Q1..Q6 and the parameterized
// `$minprice` family QP over the side documents. Latencies are kept and
// summarized per family, never pooled across families.
//
// The oracle is the native whole-document interpreter
// (Mode::kNativeWhole), which shares no code with compile, isolate or
// plan. Its answer is computed once per distinct request (document, text
// and parameter bindings) before any timing.
//
// The traced pipeline makes the same calls XQueryProcessor::Prepare and
// ResultCursor make, one layer at a time, with a span around each:
// xquery::Parse, xquery::Normalize, compiler::CompileQuery,
// opt::Isolate, opt::ExtractJoinGraph, sql::EmitJoinGraphSql,
// engine::PlanJoinGraph, the columnar stream open, stream pulls, and
// xml::SerializeSubtree per item.
#ifndef XQBENCH_FAMILIES_H_
#define XQBENCH_FAMILIES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/algebra/operators.h"
#include "src/api/catalog.h"
#include "src/api/processor.h"
#include "src/common/status.h"
#include "src/common/value.h"
#include "src/engine/exec_options.h"
#include "src/engine/planner.h"
#include "src/opt/join_graph.h"
#include "trace.h"

namespace xqbench {

struct Family {
  std::string id;        ///< "Q1" .. "Q6", "QP"
  std::string text;      ///< the family's base query text
  std::string document;  ///< context document
};

/// Q1..Q6 then QP, in that order.
const std::vector<Family>& Families();
/// Index of `id` in Families().
int FamilyIndex(const std::string& id);

/// One read request: a query text against a context document, with
/// bindings for the parameterized family.
struct Request {
  int family = 0;
  std::string text;
  std::string document;
  std::map<std::string, xqjg::Value> params;
};

/// The family's base query as a request.
Request BaseRequest(int family);

/// `count` distinct literal variants of `family` (Q1, Q3, Q4, Q5 or Q6),
/// in seeded order: an `initial` bound, a person id, a price threshold, a
/// proceedings key or a year. Returns fewer when the family has fewer
/// distinct literals.
std::vector<Request> LiteralVariants(int family, int count,
                                     std::mt19937_64& rng);

/// A QP request: `$minprice` against side document `side`.
Request MinPriceRequest(int side, int minprice);

/// Native-interpreter answers, keyed by distinct request.
class Oracle {
 public:
  /// Computes the answer for `request` unless already known.
  xqjg::Status Ensure(const xqjg::api::XQueryProcessor& processor,
                      const Request& request);
  /// The answer, or null if Ensure never ran for this request.
  const std::vector<std::string>* Find(const Request& request) const;

 private:
  static std::string Key(const Request& request);
  std::map<std::string, std::vector<std::string>> answers_;
};

/// The artifacts of one traced compilation.
struct TracedPlan {
  std::shared_ptr<const xqjg::api::CatalogSnapshot> catalog;
  xqjg::algebra::OpPtr isolated;
  /// Heap-allocated because `plan` points into it.
  std::unique_ptr<const xqjg::opt::JoinGraph> graph;
  xqjg::engine::PhysicalPlan plan;
  bool has_plan = false;  ///< false: the isolated DAG runs directly
  int64_t ops_after_isolate = 0;
  int64_t rules_applied = 0;
};

/// Compiles `request` in join-graph mode against the processor's current
/// catalog, one span per layer call.
xqjg::Result<TracedPlan> TracedPrepare(
    const xqjg::api::XQueryProcessor& processor, const Request& request,
    Tracer& tracer);

/// Runs a traced plan on the serial columnar lane and serializes every
/// item, one span per layer call.
xqjg::Result<std::vector<std::string>> TracedExecute(
    const TracedPlan& plan, Tracer& tracer, xqjg::engine::ExecStats* stats);

}  // namespace xqbench

#endif  // XQBENCH_FAMILIES_H_

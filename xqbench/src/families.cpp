#include "families.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/api/paper_queries.h"
#include "src/compiler/compile.h"
#include "src/engine/columnar/columnar_exec.h"
#include "src/engine/columnar/plan_exec.h"
#include "src/opt/isolate.h"
#include "src/sql/sqlgen.h"
#include "src/xml/serializer.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"
#include "util.h"

namespace xqbench {

using xqjg::Result;
using xqjg::Status;
using xqjg::Value;

namespace {

const char kMinPriceQuery[] =
    "declare variable $minprice as xs:decimal external; "
    "//closed_auction[price > $minprice]/price/text()";

const char* const kVenues[] = {"vldb", "sigmod", "icde", "edbt", "cidr"};
constexpr int kFirstYear = 1985;
constexpr int kLastYear = 2008;

std::string Printf(const char* format, int a) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a);
  return buf;
}

/// The literal variant `draw` of `family`; `draw` ranges over
/// [0, DomainSize(family)).
std::string VariantText(const std::string& id, int draw) {
  if (id == "Q1") {
    return Printf(
        "doc(\"auction.xml\")/descendant::open_auction[bidder and "
        "initial < %d]",
        20 + draw);
  }
  if (id == "Q3") {
    return Printf("/site/people/person[@id = \"person%d\"]/name/text()",
                  draw);
  }
  if (id == "Q4") {
    return Printf("//closed_auction[price > %d]/price/text()", 1 + draw);
  }
  if (id == "Q5") {
    const int venues = static_cast<int>(std::size(kVenues));
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "/dblp/*[@key = \"conf/%s%d/p\" and editor and title]/title",
                  kVenues[draw % venues], kFirstYear + draw / venues);
    return buf;
  }
  return Printf(
      "for $thesis in /dblp/phdthesis[year < \"%d\" and author and title] "
      "return $thesis/title",
      kFirstYear + draw);
}

int DomainSize(const std::string& id) {
  if (id == "Q1") return 280;
  if (id == "Q3") return 150;  // people at XMark scale 1
  if (id == "Q4") return 400;
  if (id == "Q5") {
    return static_cast<int>(std::size(kVenues)) * (kLastYear - kFirstYear);
  }
  if (id == "Q6") return kLastYear - kFirstYear + 1;
  return 0;
}

}  // namespace

const std::vector<Family>& Families() {
  static const std::vector<Family> kFamilies = [] {
    std::vector<Family> out;
    for (const auto& q : xqjg::api::PaperQueries()) {
      out.push_back({q.id, q.text, q.document});
    }
    out.push_back({"QP", kMinPriceQuery, "doc_0.xml"});
    return out;
  }();
  return kFamilies;
}

int FamilyIndex(const std::string& id) {
  const auto& families = Families();
  for (size_t i = 0; i < families.size(); ++i) {
    if (families[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

Request BaseRequest(int family) {
  const Family& f = Families()[static_cast<size_t>(family)];
  return {family, f.text, f.document, {}};
}

std::vector<Request> LiteralVariants(int family, int count,
                                     std::mt19937_64& rng) {
  const Family& f = Families()[static_cast<size_t>(family)];
  // Stratified: one literal from each of `count` equal slices of the
  // domain, so every seed covers the same range of result sizes and only
  // the exact literals and their order vary.
  const int domain = DomainSize(f.id);
  count = std::min(count, domain);
  std::vector<int> draws;
  for (int k = 0; k < count; ++k) {
    std::uniform_int_distribution<int> in_slice(k * domain / count,
                                                (k + 1) * domain / count - 1);
    draws.push_back(in_slice(rng));
  }
  std::shuffle(draws.begin(), draws.end(), rng);
  std::vector<Request> out;
  for (int draw : draws) {
    out.push_back({family, VariantText(f.id, draw), f.document, {}});
  }
  return out;
}

Request MinPriceRequest(int side, int minprice) {
  Request r = BaseRequest(FamilyIndex("QP"));
  r.document = "doc_" + std::to_string(side) + ".xml";
  r.params["minprice"] = Value::Double(minprice);
  return r;
}

std::string Oracle::Key(const Request& request) {
  std::string key = request.document + '\n' + request.text;
  for (const auto& [name, value] : request.params) {
    key += '\n' + name + '=' + value.ToString();
  }
  return key;
}

Status Oracle::Ensure(const xqjg::api::XQueryProcessor& processor,
                      const Request& request) {
  std::string key = Key(request);
  if (answers_.count(key)) return Status::OK();
  xqjg::api::PrepareOptions options;
  options.mode = xqjg::api::Mode::kNativeWhole;
  options.context_document = request.document;
  XQJG_ASSIGN_OR_RETURN(auto prepared,
                        processor.Prepare(request.text, options));
  xqjg::api::ExecuteOptions exec;
  exec.parameters = request.params;
  XQJG_ASSIGN_OR_RETURN(xqjg::api::RunResult run,
                        processor.ExecuteAll(prepared, exec));
  answers_.emplace(std::move(key), std::move(run.items));
  return Status::OK();
}

const std::vector<std::string>* Oracle::Find(const Request& request) const {
  auto it = answers_.find(Key(request));
  return it == answers_.end() ? nullptr : &it->second;
}

Result<TracedPlan> TracedPrepare(const xqjg::api::XQueryProcessor& processor,
                                 const Request& request, Tracer& tracer) {
  TracedPlan out;
  out.catalog = processor.snapshot();
  xqjg::xquery::ExprPtr ast;
  {
    ScopedSpan span(tracer, "xquery.parse");
    XQJG_ASSIGN_OR_RETURN(ast, xqjg::xquery::Parse(request.text));
  }
  xqjg::xquery::ExprPtr core;
  {
    ScopedSpan span(tracer, "xquery.normalize");
    xqjg::xquery::NormalizeOptions options;
    options.context_document = request.document;
    XQJG_ASSIGN_OR_RETURN(core, xqjg::xquery::Normalize(ast, options));
  }
  xqjg::algebra::OpPtr stacked;
  {
    ScopedSpan span(tracer, "compiler.compile");
    XQJG_ASSIGN_OR_RETURN(stacked, xqjg::compiler::CompileQuery(core));
  }
  {
    ScopedSpan span(tracer, "opt.isolate");
    XQJG_ASSIGN_OR_RETURN(xqjg::opt::IsolationResult iso,
                          xqjg::opt::Isolate(stacked));
    out.isolated = iso.isolated;
    out.ops_after_isolate = static_cast<int64_t>(iso.ops_after);
    for (const auto& [rule, count] : iso.rule_counts) {
      out.rules_applied += count;
    }
  }
  Result<xqjg::opt::JoinGraph> graph = Status::Internal("not extracted");
  {
    ScopedSpan span(tracer, "opt.extract");
    graph = xqjg::opt::ExtractJoinGraph(out.isolated);
  }
  if (!graph.ok()) {
    // Residual blocking operators: the isolated DAG runs directly and
    // ships as a CTE chain.
    ScopedSpan span(tracer, "sql.emit");
    (void)xqjg::sql::EmitStackedCte(out.isolated);
    return out;
  }
  auto owned = std::make_unique<const xqjg::opt::JoinGraph>(
      std::move(graph).value());
  {
    ScopedSpan span(tracer, "sql.emit");
    (void)xqjg::sql::EmitJoinGraphSql(*owned);
  }
  {
    ScopedSpan span(tracer, "engine.plan");
    XQJG_ASSIGN_OR_RETURN(
        out.plan,
        xqjg::engine::PlanJoinGraph(*owned, *out.catalog->relational_db()));
  }
  out.graph = std::move(owned);
  out.has_plan = true;
  return out;
}

Result<std::vector<std::string>> TracedExecute(const TracedPlan& plan,
                                               Tracer& tracer,
                                               xqjg::engine::ExecStats* stats) {
  constexpr size_t kPull = 4096;  // the cursor's FetchAll batch
  std::unique_ptr<xqjg::engine::SequenceStream> stream;
  {
    ScopedSpan span(tracer, "engine.open");
    if (plan.has_plan) {
      xqjg::engine::PlannerOptions options;
      XQJG_ASSIGN_OR_RETURN(
          stream, xqjg::engine::columnar::OpenPlanStreamColumnar(
                      plan.plan, *plan.catalog->relational_db(),
                      SerialColumnar(options), stats));
    } else {
      xqjg::engine::ExecOptions options;
      options.stats = stats;
      XQJG_ASSIGN_OR_RETURN(
          stream, xqjg::engine::columnar::OpenSequenceStreamColumnar(
                      plan.isolated, *plan.catalog->doc_table(),
                      SerialColumnar(options)));
    }
  }
  const std::shared_ptr<const xqjg::xml::DocTable> doc =
      plan.catalog->doc_table();
  std::vector<std::string> items;
  std::vector<int64_t> pres;
  for (;;) {
    pres.clear();
    {
      ScopedSpan span(tracer, "engine.drain");
      XQJG_RETURN_NOT_OK(stream->Next(kPull, &pres));
    }
    for (int64_t pre : pres) {
      ScopedSpan span(tracer, "xml.serialize");
      items.push_back(xqjg::xml::SerializeSubtree(*doc, pre));
    }
    if (pres.size() < kPull) break;
  }
  return items;
}

}  // namespace xqbench

// Reproduces Figs 4 and 7 (and the §II-D discussion): the stacked plan's
// operator profile versus the isolated plan, per query — operator census,
// blocking-operator counts, the time isolation takes, whether the
// isolated plan extracts to a join graph and over how many aliases, and
// the full Q1 plans. Exits non-zero when a paper query does not extract
// (the paper's claim: every one isolates to a single join graph).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/algebra/dag.h"
#include "src/algebra/printer.h"
#include "src/compiler/compile.h"
#include "src/opt/isolate.h"
#include "src/opt/join_graph.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"

using namespace xqjg;

namespace {

constexpr int kIsolateRuns = 25;

/// Min and median wall time of opt::Isolate on `plan`, in milliseconds.
std::pair<double, double> TimeIsolate(const algebra::OpPtr& plan) {
  std::vector<double> ms;
  for (int run = 0; run < kIsolateRuns; ++run) {
    const auto started = std::chrono::steady_clock::now();
    auto iso = opt::Isolate(plan);
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - started)
                     .count());
    if (!iso.ok()) return {-1.0, -1.0};
  }
  std::sort(ms.begin(), ms.end());
  return {ms.front(), ms[ms.size() / 2]};
}

}  // namespace

int main() {
  std::printf("Fig. 4 / Fig. 7 — stacked vs isolated plan shapes\n\n");
  std::printf(
      "%-5s %8s %8s | %7s %7s %7s | %7s %7s %7s | %9s %9s | %7s\n", "Query",
      "ops-in", "ops-out", "dist-in", "rank-in", "rowid-in", "dist-out",
      "rank-out", "rowid-out", "iso-min", "iso-med", "aliases");
  std::string json = "{\"bench\":\"plan_shapes\",\"queries\":[";
  bool first = true;
  std::vector<std::string> not_extracted;
  for (const auto& q : api::PaperQueries()) {
    auto ast = xquery::Parse(q.text);
    xquery::NormalizeOptions nopts;
    nopts.context_document = q.document;
    auto core = xquery::Normalize(ast.value(), nopts);
    auto plan = compiler::CompileQuery(core.value());
    if (!plan.ok()) continue;
    auto iso = opt::Isolate(plan.value());
    if (!iso.ok()) continue;
    using algebra::CountOps;
    using algebra::OpKind;
    const auto [iso_min_ms, iso_median_ms] = TimeIsolate(plan.value());
    auto graph = opt::ExtractJoinGraph(iso.value().isolated);
    const int aliases = graph.ok() ? graph.value().num_aliases : 0;
    if (!graph.ok()) not_extracted.push_back(q.id);
    std::printf(
        "%-5s %8zu %8zu | %7zu %7zu %7zu | %7zu %7zu %7zu | %6.2f ms %6.2f ms"
        " | %7s\n",
        q.id.c_str(), iso.value().ops_before, iso.value().ops_after,
        CountOps(plan.value(), OpKind::kDistinct),
        CountOps(plan.value(), OpKind::kRank),
        CountOps(plan.value(), OpKind::kRowId),
        CountOps(iso.value().isolated, OpKind::kDistinct),
        CountOps(iso.value().isolated, OpKind::kRank),
        CountOps(iso.value().isolated, OpKind::kRowId), iso_min_ms,
        iso_median_ms,
        graph.ok() ? std::to_string(aliases).c_str() : "none");
    char buf[704];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"id\":\"%s\",\"ops_before\":%zu,\"ops_after\":%zu,"
        "\"distinct_before\":%zu,\"rank_before\":%zu,\"rowid_before\":%zu,"
        "\"distinct_after\":%zu,\"rank_after\":%zu,\"rowid_after\":%zu,"
        "\"isolate_runs\":%d,\"isolate_ms_min\":%.4f,"
        "\"isolate_ms_median\":%.4f,\"extracts\":%s,\"aliases\":%d}",
        first ? "" : ",", q.id.c_str(), iso.value().ops_before,
        iso.value().ops_after, CountOps(plan.value(), OpKind::kDistinct),
        CountOps(plan.value(), OpKind::kRank),
        CountOps(plan.value(), OpKind::kRowId),
        CountOps(iso.value().isolated, OpKind::kDistinct),
        CountOps(iso.value().isolated, OpKind::kRank),
        CountOps(iso.value().isolated, OpKind::kRowId), kIsolateRuns,
        iso_min_ms, iso_median_ms, graph.ok() ? "true" : "false", aliases);
    json += buf;
    first = false;
  }
  json += "]}\n";
  // Full plan render for Q1 (the figures' subject).
  const auto& q1 = api::PaperQueries()[0];
  auto ast = xquery::Parse(q1.text);
  xquery::NormalizeOptions nopts;
  nopts.context_document = q1.document;
  auto core = xquery::Normalize(ast.value(), nopts);
  auto plan = compiler::CompileQuery(core.value());
  std::printf("\n--- Fig. 4: initial stacked plan for Q1 ---\n%s",
              algebra::PrintPlan(plan.value()).c_str());
  auto iso = opt::Isolate(plan.value());
  std::printf("\n--- Fig. 7: isolated plan for Q1 ---\n%s",
              algebra::PrintPlan(iso.value().isolated).c_str());
  std::printf("\nrule applications:\n");
  for (const auto& [rule, count] : iso.value().rule_counts) {
    std::printf("  %-22s %d\n", rule.c_str(), count);
  }
  if (!bench::WriteBenchJson(json)) return 1;
  for (const auto& id : not_extracted) {
    std::fprintf(stderr, "%s does not extract to a join graph\n",
                 id.c_str());
  }
  return not_extracted.empty() ? 0 : 2;
}

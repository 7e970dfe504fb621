// Golden snapshots of the user-visible text renderings — the algebra
// printer, the generated SQL and the physical plan — over the paper's
// Q-family queries. These pin the exact output so accidental drift in the
// compiler, isolation rules, printer, SQL emitter or join-order planner
// shows up as a reviewable diff.
// Refresh with: XQJG_UPDATE_GOLDENS=1 ctest -R Golden
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "src/algebra/printer.h"
#include "src/api/paper_queries.h"
#include "src/api/processor.h"
#include "src/data/dblp.h"
#include "src/data/xmark.h"
#include "src/opt/isolate.h"
#include "src/opt/join_graph.h"
#include "src/sql/sqlgen.h"
#include "tests/testutil/fixtures.h"
#include "tests/testutil/golden.h"

namespace xqjg {
namespace {

using testutil::CheckGolden;
using testutil::CompileToPlan;

// Stable id-lowercase file stem for a paper query ("Q1" -> "q1").
std::string Stem(const std::string& id) {
  std::string out = id;
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

TEST(GoldenPrinter, StackedAndIsolatedPlans) {
  for (const auto& q : api::PaperQueries()) {
    SCOPED_TRACE(q.id);
    auto stacked = CompileToPlan(q.text, q.document);
    ASSERT_TRUE(stacked.ok()) << stacked.status().ToString();
    EXPECT_TRUE(CheckGolden("printer/" + Stem(q.id) + "_stacked.txt",
                            algebra::PrintPlan(stacked.value())));

    auto isolated = opt::Isolate(stacked.value());
    ASSERT_TRUE(isolated.ok()) << isolated.status().ToString();
    EXPECT_TRUE(CheckGolden("printer/" + Stem(q.id) + "_isolated.txt",
                            algebra::PrintPlan(isolated.value().isolated)));
  }
}

TEST(GoldenSql, StackedCteAndJoinGraph) {
  for (const auto& q : api::PaperQueries()) {
    SCOPED_TRACE(q.id);
    auto stacked = CompileToPlan(q.text, q.document);
    ASSERT_TRUE(stacked.ok()) << stacked.status().ToString();

    auto cte = sql::EmitStackedCte(stacked.value());
    std::string cte_text = cte.ok()
        ? cte.value()
        : "-- EmitStackedCte: " + cte.status().ToString() + "\n";
    EXPECT_TRUE(
        CheckGolden("sql/" + Stem(q.id) + "_stacked.sql", cte_text));

    auto isolated = opt::Isolate(stacked.value());
    ASSERT_TRUE(isolated.ok()) << isolated.status().ToString();
    auto graph = opt::ExtractJoinGraph(isolated.value().isolated);
    // Non-extractable plans fall back to DAG execution (paper: not every
    // query is join-graph material); snapshot that outcome too so a rule
    // change that silently loses extraction shows up here.
    std::string jg_text = graph.ok()
        ? sql::EmitJoinGraphSql(graph.value())
        : "-- ExtractJoinGraph: " + graph.status().ToString() + "\n";
    EXPECT_TRUE(
        CheckGolden("sql/" + Stem(q.id) + "_joingraph.sql", jg_text));
  }
}

// The cost-based physical plan of every paper query that extracts to a
// join graph, over a fixed corpus (the generators are deterministic per
// seed) with the Table VI B-trees and the paper's pattern indexes. The
// planner's estimates and chosen join order show up in the text, so any
// change to costing or enumeration is a reviewable diff.
TEST(GoldenExplain, JoinGraphPhysicalPlans) {
  api::XQueryProcessor processor;
  data::XmarkOptions xmark;
  xmark.scale = 0.05;
  xmark.seed = 42;
  ASSERT_TRUE(processor
                  .LoadDocument("auction.xml", data::GenerateXmark(xmark),
                                api::XmarkSegmentTags())
                  .ok());
  data::DblpOptions dblp;
  dblp.publications = 200;
  dblp.seed = 7;
  ASSERT_TRUE(processor
                  .LoadDocument("dblp.xml", data::GenerateDblp(dblp),
                                api::DblpSegmentTags())
                  .ok());
  ASSERT_TRUE(processor.CreateRelationalIndexes().ok());
  for (auto& pattern : api::PaperPatternIndexes()) {
    processor.CreatePatternIndex(pattern);
  }
  int planned = 0;
  for (const auto& q : api::PaperQueries()) {
    SCOPED_TRACE(q.id);
    api::PrepareOptions options;
    options.mode = api::Mode::kJoinGraph;
    options.context_document = q.document;
    auto prepared = processor.Prepare(q.text, options);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    if (!prepared.value()->has_plan) continue;  // isolated-DAG fallback
    ++planned;
    EXPECT_TRUE(CheckGolden("explain/" + Stem(q.id) + ".txt",
                            prepared.value()->explain));
  }
  EXPECT_EQ(planned, 6);  // Q1-Q6
}

}  // namespace
}  // namespace xqjg

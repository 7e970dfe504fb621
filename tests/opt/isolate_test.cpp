// End-to-end tests of the compile -> isolate pipeline on the paper's Q1
// (Fig. 4 -> Fig. 7) against the Fig. 2 document snippet.
#include <gtest/gtest.h>

#include "src/algebra/dag.h"
#include "src/algebra/printer.h"
#include "src/api/paper_queries.h"
#include "src/compiler/compile.h"
#include "src/engine/columnar/columnar_exec.h"
#include "src/opt/isolate.h"
#include "src/opt/join_graph.h"
#include "src/xml/parser.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"
#include "tests/testutil/fixtures.h"

namespace xqjg {
namespace {

using algebra::OpPtr;

xml::DocTable AuctionSnippet() {
  xml::DocTable table;
  Status st = xml::LoadDocument(&table, "auction.xml", R"(
    <site>
      <open_auction id="1">
        <initial>15</initial>
        <bidder><time>18:43</time><increase>4.20</increase></bidder>
      </open_auction>
      <open_auction id="2">
        <initial>20</initial>
      </open_auction>
      <open_auction id="3">
        <bidder><increase>7.50</increase></bidder>
        <bidder><increase>1.00</increase></bidder>
      </open_auction>
    </site>)");
  EXPECT_TRUE(st.ok()) << st.ToString();
  return table;
}

Result<OpPtr> CompileText(const std::string& query) {
  XQJG_ASSIGN_OR_RETURN(xquery::ExprPtr ast, xquery::Parse(query));
  XQJG_ASSIGN_OR_RETURN(xquery::ExprPtr core, xquery::Normalize(ast));
  return compiler::CompileQuery(core);
}

/// The result sequence of a serialize-rooted plan, run on the pipeline.
Result<std::vector<int64_t>> RunOnPipeline(const OpPtr& plan,
                                           const xml::DocTable& doc) {
  return testutil::Drain(
      engine::columnar::OpenSequenceStreamColumnar(plan, doc, {}));
}

constexpr const char* kQ1 =
    "for $x in doc(\"auction.xml\")/descendant::open_auction "
    "return if ($x/child::bidder) then $x else ()";

TEST(Pipeline, Q1StackedEvaluates) {
  xml::DocTable doc = AuctionSnippet();
  auto plan = CompileText(kQ1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto seq = RunOnPipeline(plan.value(), doc);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  // open_auction id=1 (pre 2) and id=3 have bidders; id=2 does not.
  std::vector<std::string> names;
  for (int64_t pre : seq.value()) names.push_back(doc.name(pre));
  ASSERT_EQ(seq.value().size(), 2u);
  EXPECT_EQ(names[0], "open_auction");
  EXPECT_EQ(names[1], "open_auction");
  // Verify ids via the attribute child (first child row after element).
  EXPECT_EQ(doc.value(seq.value()[0] + 1), "1");
  EXPECT_EQ(doc.value(seq.value()[1] + 1), "3");
}

TEST(Pipeline, Q1IsolationPreservesResult) {
  xml::DocTable doc = AuctionSnippet();
  auto plan = CompileText(kQ1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto stacked_seq = RunOnPipeline(plan.value(), doc);
  ASSERT_TRUE(stacked_seq.ok());

  auto iso = opt::Isolate(plan.value());
  ASSERT_TRUE(iso.ok()) << iso.status().ToString();
  auto iso_seq = RunOnPipeline(iso.value().isolated, doc);
  ASSERT_TRUE(iso_seq.ok()) << iso_seq.status().ToString()
                            << "\n" << algebra::PrintPlan(iso.value().isolated);
  EXPECT_EQ(stacked_seq.value(), iso_seq.value());
}

TEST(Pipeline, Q1IsolatedPlanShape) {
  auto plan = CompileText(kQ1);
  ASSERT_TRUE(plan.ok());
  auto iso = opt::Isolate(plan.value());
  ASSERT_TRUE(iso.ok()) << iso.status().ToString();
  const OpPtr& p = iso.value().isolated;
  SCOPED_TRACE(algebra::PrintPlan(p));
  // Fig. 7: at most one rank and one distinct remain, and the plan shrinks
  // substantially relative to the stacked original (Fig. 4).
  EXPECT_LE(iso.value().ranks_after, 1u);
  EXPECT_LE(iso.value().distincts_after, 1u);
  EXPECT_LT(iso.value().ops_after, iso.value().ops_before);
  // No rowid operators survive (rule 1 target).
  EXPECT_EQ(algebra::CountOps(p, algebra::OpKind::kRowId), 0u);
}

TEST(Pipeline, Q1ExtractsJoinGraph) {
  auto plan = CompileText(kQ1);
  ASSERT_TRUE(plan.ok());
  auto iso = opt::Isolate(plan.value());
  ASSERT_TRUE(iso.ok());
  auto jg = opt::ExtractJoinGraph(iso.value().isolated);
  ASSERT_TRUE(jg.ok()) << jg.status().ToString() << "\n"
                       << algebra::PrintPlan(iso.value().isolated);
  // Fig. 8: a three-fold self-join of doc (document node, open_auction,
  // bidder).
  EXPECT_EQ(jg.value().num_aliases, 3);
  EXPECT_TRUE(jg.value().distinct);
  EXPECT_FALSE(jg.value().order_by.empty());
}

TEST(Pipeline, Q2ExtractsJoinGraph) {
  // The three-way value join: each nested for-clause's rowid numbers
  // (outer iteration, item) pairs, and isolation replaces it by that
  // composite key, so the whole query becomes one join graph.
  const api::PaperQuery& q2 = api::PaperQueries()[1];
  ASSERT_EQ(q2.id, "Q2");
  auto plan = CompileText(q2.text);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto iso = opt::Isolate(plan.value());
  ASSERT_TRUE(iso.ok()) << iso.status().ToString();
  const OpPtr& p = iso.value().isolated;
  EXPECT_EQ(algebra::CountOps(p, algebra::OpKind::kRowId), 0u);
  // One rank, the plan tail's, right below serialize; one δ.
  EXPECT_EQ(iso.value().ranks_after, 1u);
  ASSERT_EQ(p->children[0]->kind, algebra::OpKind::kRank);
  EXPECT_EQ(iso.value().distincts_after, 1u);
  // What is left of the cross products pairs the closed_auction loop with
  // the document node that `$a` binds, once per nested for-clause.
  EXPECT_EQ(algebra::CountOps(p, algebra::OpKind::kCross), 5u);
  auto jg = opt::ExtractJoinGraph(p);
  ASSERT_TRUE(jg.ok()) << jg.status().ToString() << "\n"
                       << algebra::PrintPlan(p);
  // Twelve aliases for the paths, two more document nodes, and two more
  // copies of the first where-clause's itemref/@item/@id chain.
  EXPECT_EQ(jg.value().num_aliases, 20);
  EXPECT_TRUE(jg.value().distinct);
  EXPECT_EQ(jg.value().order_by.size(), 4u);  // $ca, $i, $c, name
}

}  // namespace
}  // namespace xqjg

// Engine tests: database build/statistics, access-path selection through
// plans, DP vs greedy agreement, explain rendering, timeouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "src/api/paper_queries.h"
#include "src/compiler/compile.h"
#include "src/data/dblp.h"
#include "src/data/xmark.h"
#include "src/engine/columnar/plan_exec.h"
#include "src/engine/database.h"
#include "src/engine/planner.h"
#include "src/opt/isolate.h"
#include "src/opt/join_graph.h"
#include "src/xml/parser.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"
#include "tests/testutil/fixtures.h"

namespace xqjg::engine {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    doc_ = new xml::DocTable();
    data::XmarkOptions options;
    options.scale = 0.05;
    ASSERT_TRUE(xml::LoadDocument(doc_, "auction.xml",
                                  data::GenerateXmark(options))
                    .ok());
    // Small on purpose: Q5 and Q6 only need to extract to more than 13
    // aliases, and the suite runs their syntactic plans too.
    data::DblpOptions dblp;
    dblp.publications = 20;
    ASSERT_TRUE(
        xml::LoadDocument(doc_, "dblp.xml", data::GenerateDblp(dblp)).ok());
    db_ = Database::Build(*doc_).release();
    for (const auto& def : TableVIIndexes()) {
      ASSERT_TRUE(db_->CreateIndex(def).ok());
    }
  }
  static void TearDownTestSuite() {
    delete db_;
    delete doc_;
  }

  static Result<opt::JoinGraph> Graph(
      const std::string& query,
      const std::string& context_document = "auction.xml") {
    XQJG_ASSIGN_OR_RETURN(xquery::ExprPtr ast, xquery::Parse(query));
    xquery::NormalizeOptions nopts;
    nopts.context_document = context_document;
    XQJG_ASSIGN_OR_RETURN(xquery::ExprPtr core,
                          xquery::Normalize(ast, nopts));
    XQJG_ASSIGN_OR_RETURN(algebra::OpPtr plan, compiler::CompileQuery(core));
    XQJG_ASSIGN_OR_RETURN(opt::IsolationResult iso, opt::Isolate(plan));
    return opt::ExtractJoinGraph(iso.isolated);
  }

  static xml::DocTable* doc_;
  static Database* db_;
};

xml::DocTable* PlannerTest::doc_ = nullptr;
Database* PlannerTest::db_ = nullptr;

TEST_F(PlannerTest, DatabaseStatistics) {
  EXPECT_EQ(db_->row_count(), doc_->row_count());
  const ColumnStats& name = db_->Stats(db_->ColumnIndex("name"));
  EXPECT_GT(name.ndv, 10);
  // name frequencies are exact
  ASSERT_TRUE(name.frequent.count("open_auction"));
  double sel = name.EqSelectivity(Value::String("open_auction"));
  EXPECT_GT(sel, 0.0);
  EXPECT_LT(sel, 0.2);
  // pre is unique
  const ColumnStats& pre = db_->Stats(db_->ColumnIndex("pre"));
  EXPECT_EQ(pre.ndv, db_->row_count());
  EXPECT_LT(pre.RangeSelectivity(Value::Int(0),
                                 Value::Int(db_->row_count() / 10)),
            0.25);
}

TEST_F(PlannerTest, IndexCreationRejectsUnknownColumns) {
  Database db2;  // empty database
  (void)db2;
  auto db = Database::Build(*doc_);
  EXPECT_FALSE(db->CreateIndex({"bad", {"nonexistent"}, {}, false}).ok());
  EXPECT_TRUE(db->CreateIndex({"ok", {"name", "pre"}, {}, false}).ok());
  EXPECT_EQ(db->indexes().size(), 1u);
  EXPECT_EQ(db->indexes()[0]->tree.size(),
            static_cast<size_t>(doc_->row_count()));
}

TEST_F(PlannerTest, SelectiveQueryStartsAtValueIndex) {
  auto graph = Graph("//person[@id = \"person0\"]/name");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto plan = PlanJoinGraph(graph.value(), *db_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string explain = ExplainPlan(plan.value());
  // The @id test must be served by an index probe (value-prefixed vnlkp
  // or owner-resolving qnkp, depending on estimated selectivities) — not
  // by a table scan.
  EXPECT_TRUE(explain.find("vnlkp") != std::string::npos ||
              explain.find("qnkp") != std::string::npos)
      << explain;
  EXPECT_EQ(explain.find("TBSCAN"), std::string::npos) << explain;
  EXPECT_NE(explain.find("SORT (distinct)"), std::string::npos);
}

TEST_F(PlannerTest, DpAndGreedyAndSyntacticAgreeOnResults) {
  // The cost-based plan is DP up to 13 aliases and greedy above; Q5 and
  // Q6 extract to more than 13, so they take the greedy path.
  std::vector<std::pair<std::string, std::string>> queries = {
      {"//open_auction[bidder]", "auction.xml"},
      {"//closed_auction[price > 100]/price", "auction.xml"},
      {"//item[incategory]/name", "auction.xml"},
  };
  for (const auto& q : api::PaperQueries()) {
    if (q.id == "Q5" || q.id == "Q6") queries.emplace_back(q.text, q.document);
  }
  int greedy = 0;
  for (const auto& [query, document] : queries) {
    SCOPED_TRACE(query);
    auto graph = Graph(query, document);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    if (graph.value().num_aliases > 13) ++greedy;
    auto dp_plan = PlanJoinGraph(graph.value(), *db_);
    ASSERT_TRUE(dp_plan.ok());
    auto dp_result = testutil::Drain(
        columnar::OpenPlanStreamColumnar(dp_plan.value(), *db_, {}, nullptr));
    ASSERT_TRUE(dp_result.ok());

    PlannerOptions syntactic;
    syntactic.syntactic_order = true;
    auto naive_plan = PlanJoinGraph(graph.value(), *db_, syntactic);
    ASSERT_TRUE(naive_plan.ok());
    EXPECT_NE(ExplainPlan(naive_plan.value()), ExplainPlan(dp_plan.value()));
    auto naive_result = testutil::Drain(columnar::OpenPlanStreamColumnar(
        naive_plan.value(), *db_, syntactic, nullptr));
    ASSERT_TRUE(naive_result.ok());
    EXPECT_FALSE(dp_result.value().empty());
    EXPECT_EQ(dp_result.value(), naive_result.value());
  }
  EXPECT_EQ(greedy, 2);
}

TEST_F(PlannerTest, SyntacticOrderJoinsOnlyAlongPredicates) {
  // The ablation baseline keeps the numbering order but never joins an
  // alias that shares no predicate with the aliases already joined, so
  // no join of a connected graph is a cross product.
  int extracted = 0;
  for (const auto& q : api::PaperQueries()) {
    SCOPED_TRACE(q.id);
    auto graph = Graph(q.text, q.document);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    ++extracted;
    PlannerOptions syntactic;
    syntactic.syntactic_order = true;
    auto plan = PlanJoinGraph(graph.value(), *db_, syntactic);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    std::vector<const PhysNode*> stack = {plan.value().root.get()};
    while (!stack.empty()) {
      const PhysNode* node = stack.back();
      stack.pop_back();
      if (node->kind != PhysKind::kNlJoin && node->kind != PhysKind::kHsJoin) {
        continue;
      }
      EXPECT_FALSE(node->preds.empty()) << ExplainPlan(plan.value());
      stack.push_back(node->left.get());
      stack.push_back(node->right.get());
    }
  }
  EXPECT_EQ(extracted, 6);  // Q1-Q6
}

TEST_F(PlannerTest, ContainmentJoinEstimateIsManyToOne) {
  // Each descendant lies below about one row of the ancestor alias, so a
  // path's estimate stays near its descendants' count instead of
  // collapsing towards one row.
  for (const char* path :
       {"doc(\"auction.xml\")//closed_auction/price",
        "doc(\"auction.xml\")//item"}) {
    SCOPED_TRACE(path);
    auto graph = Graph(path);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    auto plan = PlanJoinGraph(graph.value(), *db_);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto stream = columnar::OpenPlanStreamColumnar(plan.value(), *db_, {},
                                                   nullptr);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    const double actual = static_cast<double>(stream.value()->rows_total());
    const double estimated = plan.value().root->est_rows;
    ASSERT_GT(actual, 0);
    EXPECT_LE(estimated, 4 * actual) << ExplainPlan(plan.value());
    EXPECT_GE(estimated, actual / 4) << ExplainPlan(plan.value());
  }

  // On Q2 the cost-based plan is no slower than the syntactic order.
  const api::PaperQuery& q2 = api::PaperQueries()[1];
  ASSERT_EQ(q2.id, "Q2");
  auto graph = Graph(q2.text, q2.document);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto best_seconds = [&](const PlannerOptions& options, int64_t* rows) {
    auto plan = PlanJoinGraph(graph.value(), *db_, options);
    EXPECT_TRUE(plan.ok());
    double best = 1e300;
    for (int run = 0; run < 5 && plan.ok(); ++run) {
      const auto start = std::chrono::steady_clock::now();
      auto stream = columnar::OpenPlanStreamColumnar(plan.value(), *db_,
                                                     options, nullptr);
      EXPECT_TRUE(stream.ok());
      if (!stream.ok()) break;
      *rows = stream.value()->rows_total();
      best = std::min(best, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    }
    return best;
  };
  PlannerOptions syntactic;
  syntactic.syntactic_order = true;
  int64_t cost_rows = -1, syntactic_rows = -2;
  const double cost_based = best_seconds({}, &cost_rows);
  const double naive = best_seconds(syntactic, &syntactic_rows);
  EXPECT_EQ(cost_rows, syntactic_rows);
  // The best of five runs each, with 1 ms of slack for timer noise.
  EXPECT_LE(cost_based, naive + 1e-3)
      << "cost-based " << cost_based << " s, syntactic " << naive << " s";
}

TEST_F(PlannerTest, NoIndexesFallsBackToScansCorrectly) {
  auto graph = Graph("//open_auction[bidder]");
  ASSERT_TRUE(graph.ok());
  auto with_plan = PlanJoinGraph(graph.value(), *db_);
  ASSERT_TRUE(with_plan.ok());
  auto expected = testutil::Drain(
      columnar::OpenPlanStreamColumnar(with_plan.value(), *db_, {}, nullptr));
  ASSERT_TRUE(expected.ok());

  auto bare = Database::Build(*doc_);
  auto plan = PlanJoinGraph(graph.value(), *bare);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(ExplainPlan(plan.value()).find("TBSCAN"), std::string::npos);
  auto result = testutil::Drain(
      columnar::OpenPlanStreamColumnar(plan.value(), *bare, {}, nullptr));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), expected.value());
}

TEST_F(PlannerTest, TimeoutReportsDnf) {
  auto graph = Graph("//item/incategory/@category");
  ASSERT_TRUE(graph.ok());
  auto bare = Database::Build(*doc_);  // no indexes: slow scans
  PlannerOptions options;
  options.limits.timeout_seconds = 1e-9;
  auto plan = PlanJoinGraph(graph.value(), *bare, options);
  ASSERT_TRUE(plan.ok());
  auto result = testutil::Drain(
      columnar::OpenPlanStreamColumnar(plan.value(), *bare, options, nullptr));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST_F(PlannerTest, AdvisorCoversWorkloadFeatures) {
  auto g1 = Graph("//closed_auction[price > 500]");
  auto g2 = Graph("//person[@id = \"person0\"]/name");
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  auto proposed = AdviseIndexes({&g1.value(), &g2.value()});
  std::set<std::string> names;
  for (const auto& def : proposed) names.insert(def.name);
  EXPECT_TRUE(names.count("nkspl"));  // name tests + pre ranges
  EXPECT_TRUE(names.count("nlkp"));   // child steps
  EXPECT_TRUE(names.count("nkdlp"));  // decimal comparison (price > 500)
  EXPECT_TRUE(names.count("vnlkp"));  // string value comparison (@id = ..)
  EXPECT_TRUE(names.count("qnkp"));   // attribute/owner joins
}

TEST_F(PlannerTest, TableVIIndexesBuildEverywhere) {
  auto db = Database::Build(*doc_);
  for (const auto& def : TableVIIndexes()) {
    EXPECT_TRUE(db->CreateIndex(def).ok()) << def.ToString();
  }
  EXPECT_EQ(db->indexes().size(), TableVIIndexes().size());
}

}  // namespace
}  // namespace xqjg::engine

// Differential property tests: for a family of generated queries over a
// generated document, the stacked plan, the isolated plan (both on the
// batch pipeline), the cost-based join-graph plan (where extractable),
// and the native reference interpreter must all return the same node
// sequence.
#include <gtest/gtest.h>

#include "src/common/str.h"
#include "src/compiler/compile.h"
#include "src/data/xmark.h"
#include "src/engine/columnar/columnar_exec.h"
#include "src/engine/columnar/plan_exec.h"
#include "src/engine/database.h"
#include "src/engine/planner.h"
#include "src/native/interp.h"
#include "src/opt/isolate.h"
#include "src/opt/join_graph.h"
#include "src/xml/parser.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"
#include "tests/testutil/fixtures.h"
#include "tests/testutil/generated_queries.h"

namespace xqjg {
namespace {

class DifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::XmarkOptions options;
    options.scale = 0.05;
    xml_text_ = new std::string(data::GenerateXmark(options));
    doc_ = new xml::DocTable();
    ASSERT_TRUE(xml::LoadDocument(doc_, "auction.xml", *xml_text_).ok());
    auto dom = xml::ParseDom("auction.xml", *xml_text_);
    ASSERT_TRUE(dom.ok());
    dom_ = dom.value().release();
    db_ = engine::Database::Build(*doc_).release();
    for (const auto& def : engine::TableVIIndexes()) {
      ASSERT_TRUE(db_->CreateIndex(def).ok());
    }
  }
  static void TearDownTestSuite() {
    delete db_;
    delete dom_;
    delete doc_;
    delete xml_text_;
  }

  static std::string* xml_text_;
  static xml::DocTable* doc_;
  static xml::XmlDocument* dom_;
  static engine::Database* db_;
};

std::string* DifferentialTest::xml_text_ = nullptr;
xml::DocTable* DifferentialTest::doc_ = nullptr;
xml::XmlDocument* DifferentialTest::dom_ = nullptr;
engine::Database* DifferentialTest::db_ = nullptr;

class QueryFamily : public DifferentialTest,
                    public ::testing::WithParamInterface<const char*> {};

TEST_P(QueryFamily, AllExecutorsAgree) {
  const std::string query = GetParam();
  auto ast = xquery::Parse(query);
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  xquery::NormalizeOptions nopts;
  nopts.context_document = "auction.xml";
  auto core = xquery::Normalize(ast.value(), nopts);
  ASSERT_TRUE(core.ok()) << core.status().ToString();

  // Reference: the native interpreter.
  native::MapResolver resolver;
  resolver.Add(dom_);
  auto reference = native::EvaluateQuery(core.value(), &resolver);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::vector<int64_t> expected;
  for (const xml::XmlNode* node : reference.value()) {
    expected.push_back(node->pre);  // same pre numbering as the table
  }

  auto stacked = compiler::CompileQuery(core.value());
  ASSERT_TRUE(stacked.ok()) << stacked.status().ToString();
  auto stacked_seq = testutil::Drain(
      engine::columnar::OpenSequenceStreamColumnar(stacked.value(), *doc_, {}));
  ASSERT_TRUE(stacked_seq.ok()) << stacked_seq.status().ToString();
  EXPECT_EQ(stacked_seq.value(), expected) << "stacked vs interpreter";

  auto iso = opt::Isolate(stacked.value());
  ASSERT_TRUE(iso.ok()) << iso.status().ToString();
  auto iso_seq = testutil::Drain(engine::columnar::OpenSequenceStreamColumnar(
      iso.value().isolated, *doc_, {}));
  ASSERT_TRUE(iso_seq.ok()) << iso_seq.status().ToString();
  EXPECT_EQ(iso_seq.value(), expected) << "isolated vs interpreter";

  auto graph = opt::ExtractJoinGraph(iso.value().isolated);
  if (graph.ok()) {
    auto plan = engine::PlanJoinGraph(graph.value(), *db_);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto engine_seq = testutil::Drain(engine::columnar::OpenPlanStreamColumnar(
        plan.value(), *db_, {}, nullptr));
    ASSERT_TRUE(engine_seq.ok()) << engine_seq.status().ToString();
    EXPECT_EQ(engine_seq.value(), expected)
        << "engine vs interpreter\n" << graph.value().ToString();
    // Ablation executor must agree too.
    engine::PlannerOptions popts;
    popts.syntactic_order = true;
    auto naive_plan = engine::PlanJoinGraph(graph.value(), *db_, popts);
    ASSERT_TRUE(naive_plan.ok());
    auto naive_seq = testutil::Drain(engine::columnar::OpenPlanStreamColumnar(
        naive_plan.value(), *db_, popts, nullptr));
    ASSERT_TRUE(naive_seq.ok());
    EXPECT_EQ(naive_seq.value(), expected) << "syntactic order executor";
  }
}

INSTANTIATE_TEST_SUITE_P(GeneratedQueries, QueryFamily,
                         ::testing::ValuesIn(testutil::GeneratedQueries()));

}  // namespace
}  // namespace xqjg

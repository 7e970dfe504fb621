// Differential suite for the columnar executors: the batch pipeline and
// the native interpreter must agree — on the paper's Q1–Q6 (stacked and
// join-graph execution) and on a family of queries over seeded randomized
// documents (stacked and isolated plans).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/api/paper_queries.h"
#include "src/api/processor.h"
#include "src/compiler/compile.h"
#include "src/data/dblp.h"
#include "src/data/xmark.h"
#include "src/engine/columnar/columnar_exec.h"
#include "src/native/interp.h"
#include "src/opt/isolate.h"
#include "src/xml/parser.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"
#include "tests/testutil/fixtures.h"

namespace xqjg {
namespace {

class ColumnarPaperQueries : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    processor_ = new api::XQueryProcessor();
    data::XmarkOptions xmark;
    xmark.scale = 0.08;
    ASSERT_TRUE(processor_
                    ->LoadDocument("auction.xml", data::GenerateXmark(xmark))
                    .ok());
    data::DblpOptions dblp;
    dblp.publications = 300;
    ASSERT_TRUE(processor_
                    ->LoadDocument("dblp.xml", data::GenerateDblp(dblp))
                    .ok());
    ASSERT_TRUE(processor_->CreateRelationalIndexes().ok());
  }
  static void TearDownTestSuite() {
    delete processor_;
    processor_ = nullptr;
  }

  static api::XQueryProcessor* processor_;
};

api::XQueryProcessor* ColumnarPaperQueries::processor_ = nullptr;

class ColumnarPaperQueryCase
    : public ColumnarPaperQueries,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(ColumnarPaperQueryCase, RowAndColumnarAgreeInEveryRelationalMode) {
  const api::PaperQuery* query = nullptr;
  for (const auto& q : api::PaperQueries()) {
    if (q.id == GetParam()) query = &q;
  }
  ASSERT_NE(query, nullptr);
  // The native interpreter shares no code with compile, isolate, or plan:
  // both relational lanes must produce its items.
  api::RunOptions options;
  options.mode = api::Mode::kNativeWhole;
  options.context_document = query->document;
  options.timeout_seconds = 120;
  auto native = processor_->Run(query->text, options);
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  for (api::Mode mode : {api::Mode::kStacked, api::Mode::kJoinGraph}) {
    api::PrepareOptions prep;
    prep.mode = mode;
    prep.context_document = query->document;
    auto prepared = processor_->Prepare(query->text, prep);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    api::ExecuteOptions exec;
    exec.limits.timeout_seconds = 120;
    auto col = processor_->ExecuteAll(prepared.value(), exec);
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    EXPECT_EQ(native.value().items, col.value().items)
        << query->id << " native vs columnar in mode "
        << api::ModeToString(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperQueries, ColumnarPaperQueryCase,
                         ::testing::Values("Q1", "Q2", "Q3", "Q4", "Q5",
                                           "Q6"),
                         [](const ::testing::TestParamInfo<const char*>& pi) {
                           return std::string(pi.param);
                         });

// ---------------------------------------------------------------------------
// Randomized documents: stacked and isolated plans on the columnar
// executor against the native interpreter, across seeds.

const char* kRandomQueries[] = {
    "doc(\"rand.xml\")//a",
    "doc(\"rand.xml\")//a/b",
    "doc(\"rand.xml\")//b[c]",
    "doc(\"rand.xml\")//c/parent::a",
    "doc(\"rand.xml\")//a[b > 10]/b",
    "doc(\"rand.xml\")//d/ancestor::b",
    "doc(\"rand.xml\")//a/@id",
    "doc(\"rand.xml\")//b/following-sibling::c",
    "for $x in doc(\"rand.xml\")//a for $y in doc(\"rand.xml\")//c "
    "where $x/@id = $y/@ref return $y",
    "for $x in doc(\"rand.xml\")//b where $x/c > 20 return $x/d",
};

class RandomDocCase : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDocCase, StackedAndIsolatedAgreeUnderBothExecutors) {
  const std::string xml = testutil::RandomXml(GetParam());
  xml::DocTable doc = testutil::LoadDoc("rand.xml", xml);
  auto dom = xml::ParseDom("rand.xml", xml);
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  native::MapResolver resolver;
  resolver.Add(dom.value().get());
  for (const char* query : kRandomQueries) {
    auto ast = xquery::Parse(query);
    ASSERT_TRUE(ast.ok()) << query << ": " << ast.status().ToString();
    auto core = xquery::Normalize(ast.value(), {});
    ASSERT_TRUE(core.ok()) << query << ": " << core.status().ToString();
    auto reference = native::EvaluateQuery(core.value(), &resolver);
    ASSERT_TRUE(reference.ok()) << query;
    std::vector<int64_t> expected;
    for (const xml::XmlNode* node : reference.value()) {
      expected.push_back(node->pre);
    }
    auto stacked = compiler::CompileQuery(core.value());
    ASSERT_TRUE(stacked.ok()) << query << ": " << stacked.status().ToString();
    auto iso = opt::Isolate(stacked.value());
    ASSERT_TRUE(iso.ok()) << query;
    for (const auto& [label, plan] :
         {std::pair<const char*, algebra::OpPtr>{"stacked", stacked.value()},
          {"isolated", iso.value().isolated}}) {
      auto col = testutil::Drain(
          engine::columnar::OpenSequenceStreamColumnar(plan, doc, {}));
      ASSERT_TRUE(col.ok()) << query << " " << label;
      EXPECT_EQ(col.value(), expected)
          << query << " " << label << " columnar vs native (seed "
          << GetParam() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDocCase,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace xqjg

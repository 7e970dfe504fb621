// Rule-level tests of the Fig. 5 rewrite system on minimal plans. Each
// test checks a single rewrite's observable effect (via the rule counters
// and plan shape) plus result preservation on a tiny document.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>

#include "src/algebra/dag.h"
#include "src/algebra/printer.h"
#include "src/api/paper_queries.h"
#include "src/compiler/compile.h"
#include "src/engine/columnar/columnar_exec.h"
#include "src/opt/rules.h"
#include "src/xml/parser.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"
#include "tests/testutil/fixtures.h"
#include "tests/testutil/generated_queries.h"

namespace xqjg::opt {
namespace {

using algebra::CountOps;
using algebra::OpKind;
using algebra::OpPtr;

xml::DocTable TinyDoc() {
  xml::DocTable doc;
  EXPECT_TRUE(xml::LoadDocument(&doc, "t.xml",
                                "<r><a k=\"1\"><b/></a><a k=\"2\"/></r>")
                  .ok());
  return doc;
}

Result<OpPtr> CompileText(const std::string& query) {
  XQJG_ASSIGN_OR_RETURN(xquery::ExprPtr ast, xquery::Parse(query));
  xquery::NormalizeOptions nopts;
  nopts.context_document = "t.xml";
  XQJG_ASSIGN_OR_RETURN(xquery::ExprPtr core, xquery::Normalize(ast, nopts));
  return compiler::CompileQuery(core);
}

/// The result sequence of a serialize-rooted plan, run on the pipeline.
Result<std::vector<int64_t>> RunOnPipeline(const OpPtr& plan,
                                           const xml::DocTable& doc) {
  return testutil::Drain(
      engine::columnar::OpenSequenceStreamColumnar(plan, doc, {}));
}

int Applications(const Rewriter& rw, const std::string& rule) {
  auto it = rw.rule_counts().find(rule);
  return it == rw.rule_counts().end() ? 0 : it->second;
}

TEST(Rules, RankPhaseRemovesAllRanksForSingleStep) {
  auto plan = CompileText("doc(\"t.xml\")/descendant::a");
  ASSERT_TRUE(plan.ok());
  Rewriter rw(algebra::ClonePlan(plan.value()));
  ASSERT_TRUE(rw.RunRankPhase().ok());
  // A single-step query's rank collapses entirely (rule 12 + rule 2).
  EXPECT_EQ(CountOps(rw.root(), OpKind::kRank), 0u);
  EXPECT_GE(Applications(rw, "r12-rank-single"), 1);
}

TEST(Rules, RankSpliceFiresForNestedFor) {
  auto plan = CompileText(
      "for $x in doc(\"t.xml\")//a return $x/child::b");
  ASSERT_TRUE(plan.ok());
  Rewriter rw(algebra::ClonePlan(plan.value()));
  ASSERT_TRUE(rw.Run().ok());
  EXPECT_LE(CountOps(rw.root(), OpKind::kRank), 1u);
}

TEST(Rules, JoinPhaseIntroducesSingleTailDistinct) {
  auto plan = CompileText("doc(\"t.xml\")//a[b]");
  ASSERT_TRUE(plan.ok());
  Rewriter rw(algebra::ClonePlan(plan.value()));
  ASSERT_TRUE(rw.Run().ok());
  EXPECT_EQ(Applications(rw, "r8-tail-distinct"), 1);
  EXPECT_EQ(CountOps(rw.root(), OpKind::kDistinct), 1u);
  EXPECT_GE(Applications(rw, "r6-distinct-dead"), 1);
}

TEST(Rules, RowIdsEliminatedForKeyedLoops) {
  auto plan = CompileText(
      "for $x in doc(\"t.xml\")//a return if ($x/@k) then $x else ()");
  ASSERT_TRUE(plan.ok());
  ASSERT_GE(CountOps(plan.value(), OpKind::kRowId), 1u);
  Rewriter rw(algebra::ClonePlan(plan.value()));
  ASSERT_TRUE(rw.Run().ok());
  EXPECT_EQ(CountOps(rw.root(), OpKind::kRowId), 0u);
}

TEST(Rules, CrossWithLoopLiteralBecomesAttach) {
  auto plan = CompileText("doc(\"t.xml\")/child::r");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(CountOps(plan.value(), OpKind::kCross), 1u);
  Rewriter rw(algebra::ClonePlan(plan.value()));
  ASSERT_TRUE(rw.Run().ok());
  EXPECT_EQ(CountOps(rw.root(), OpKind::kCross), 0u);
  EXPECT_GE(Applications(rw, "r5-cross-literal"), 1);
}

TEST(Rules, EveryPhasePreservesResults) {
  xml::DocTable doc = TinyDoc();
  const char* queries[] = {
      "doc(\"t.xml\")//a",
      "doc(\"t.xml\")//a[b]",
      "doc(\"t.xml\")//a[@k = \"2\"]",
      "for $x in doc(\"t.xml\")//a return $x/@k",
      "for $x in doc(\"t.xml\")//a return if ($x/b) then $x/@k else ()",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    auto plan = CompileText(q);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto before = RunOnPipeline(plan.value(), doc);
    ASSERT_TRUE(before.ok());

    Rewriter rank_only(algebra::ClonePlan(plan.value()));
    ASSERT_TRUE(rank_only.RunRankPhase().ok());
    auto mid = RunOnPipeline(rank_only.root(), doc);
    ASSERT_TRUE(mid.ok()) << mid.status().ToString();
    EXPECT_EQ(mid.value(), before.value()) << "after rank phase";

    Rewriter full(algebra::ClonePlan(plan.value()));
    ASSERT_TRUE(full.Run().ok());
    auto after = RunOnPipeline(full.root(), doc);
    ASSERT_TRUE(after.ok()) << after.status().ToString()
                            << algebra::PrintPlan(full.root());
    EXPECT_EQ(after.value(), before.value()) << "after full isolation";
  }
}

TEST(Rules, IsolationIsIdempotent) {
  auto plan = CompileText("doc(\"t.xml\")//a[b]");
  ASSERT_TRUE(plan.ok());
  Rewriter first(algebra::ClonePlan(plan.value()));
  ASSERT_TRUE(first.Run().ok());
  const size_t ops = CountOps(first.root());
  Rewriter second(algebra::ClonePlan(first.root()));
  ASSERT_TRUE(second.Run().ok());
  EXPECT_EQ(CountOps(second.root()), ops);
}

TEST(Rules, TerminatesOnDeeplyNestedQueries) {
  // Rewriting must terminate (budget is a backstop, not a crutch) even on
  // nesting that defeats full isolation.
  auto plan = CompileText(
      "for $a in doc(\"t.xml\")//a for $b in doc(\"t.xml\")//b "
      "for $r in doc(\"t.xml\")//r "
      "where $a/@k = $r/a/@k return $b");
  ASSERT_TRUE(plan.ok());
  Rewriter rw(algebra::ClonePlan(plan.value()));
  EXPECT_TRUE(rw.Run().ok());
  EXPECT_EQ(rw.rule_counts().count("budget-exhausted"), 0u);
}

/// Sets an environment variable for the scope, then restores it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(Rules, IncrementalPropertiesMatchFromScratch) {
  // Under XQJG_VALIDATE_REWRITES every firing compares the incrementally
  // kept schemas, parent links and properties with a from-scratch
  // derivation, and a mismatch fails the phase as "rewrite:<rule>".
  ScopedEnv validate("XQJG_VALIDATE_REWRITES", "1");
  std::vector<std::pair<std::string, std::string>> queries;
  for (const auto& q : api::PaperQueries()) {
    queries.emplace_back(q.text, q.document);
  }
  for (const char* q : testutil::GeneratedQueries()) {
    queries.emplace_back(q, "auction.xml");
  }
  for (const auto& [text, document] : queries) {
    SCOPED_TRACE(text);
    auto plan = testutil::CompileToPlan(text, document);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    Rewriter rw(algebra::ClonePlan(plan.value()));
    const Status st = rw.Run();
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_FALSE(rw.rule_counts().empty());
  }
}

}  // namespace
}  // namespace xqjg::opt

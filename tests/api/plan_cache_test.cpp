// Plan cache: hits on identical text+options share one artifact, any
// differing prepare-relevant option misses, LRU order governs eviction,
// stats observe all of it, and catalog mutations invalidate with
// per-document granularity — only entries whose touched documents (or
// consulted index set) changed fall out.
#include <gtest/gtest.h>

#include "src/api/processor.h"
#include "tests/testutil/fixtures.h"

namespace xqjg::api {
namespace {

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        processor_.LoadDocument("site.xml", testutil::TinySiteXml()).ok());
    ASSERT_TRUE(
        processor_.LoadDocument("bib.xml", testutil::TinyBibXml()).ok());
    ASSERT_TRUE(processor_.CreateRelationalIndexes().ok());
  }

  PrepareOptions Options() const {
    PrepareOptions options;
    options.context_document = "site.xml";
    return options;
  }

  XQueryProcessor processor_;
  const std::string query_ = "//item[price > 10.0]/name";
};

TEST_F(PlanCacheTest, SameTextAndOptionsHitAndShareTheArtifact) {
  auto first = processor_.Prepare(query_, Options());
  ASSERT_TRUE(first.ok());
  auto second = processor_.Prepare(query_, Options());
  ASSERT_TRUE(second.ok());
  // A hit returns the same immutable artifact, not a recompilation.
  EXPECT_EQ(first.value().get(), second.value().get());
  PlanCache::Stats stats = processor_.plan_cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(PlanCacheTest, AnyPrepareRelevantOptionMisses) {
  auto base = processor_.Prepare(query_, Options());
  ASSERT_TRUE(base.ok());

  PrepareOptions stacked = Options();
  stacked.mode = Mode::kStacked;
  PrepareOptions syntactic = Options();
  syntactic.syntactic_join_order = true;
  PrepareOptions serialized = Options();
  serialized.explicit_serialization_step = true;
  PrepareOptions other_context = Options();
  other_context.context_document = "bib.xml";

  for (const PrepareOptions& options :
       {stacked, syntactic, serialized, other_context}) {
    auto prepared = processor_.Prepare(query_, options);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    EXPECT_NE(prepared.value().get(), base.value().get());
  }
  PlanCache::Stats stats = processor_.plan_cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 5);
  EXPECT_EQ(stats.entries, 5u);
}

TEST_F(PlanCacheTest, LruEvictionDropsTheLeastRecentlyUsedEntry) {
  processor_.set_plan_cache_capacity(2);
  auto q1 = processor_.Prepare("//item", Options());
  auto q2 = processor_.Prepare("//item/name", Options());
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  // Touch q1 so q2 becomes least recently used.
  ASSERT_TRUE(processor_.Prepare("//item", Options()).ok());
  // Inserting a third entry evicts q2, not q1.
  ASSERT_TRUE(processor_.Prepare("//item/price", Options()).ok());

  auto q1_again = processor_.Prepare("//item", Options());
  ASSERT_TRUE(q1_again.ok());
  EXPECT_EQ(q1_again.value().get(), q1.value().get());  // survived

  auto q2_again = processor_.Prepare("//item/name", Options());
  ASSERT_TRUE(q2_again.ok());
  EXPECT_NE(q2_again.value().get(), q2.value().get());  // was evicted

  PlanCache::Stats stats = processor_.plan_cache_stats();
  EXPECT_GE(stats.evictions, 1);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_LE(stats.entries, 2u);
}

TEST_F(PlanCacheTest, RunRoutesThroughTheCache) {
  RunOptions options;
  options.context_document = "site.xml";
  auto cold = processor_.Run(query_, options);
  ASSERT_TRUE(cold.ok());
  auto warm = processor_.Run(query_, options);
  ASSERT_TRUE(warm.ok());
  // Bit-identical results through the cache.
  EXPECT_EQ(cold.value().items, warm.value().items);
  EXPECT_EQ(cold.value().sql, warm.value().sql);
  EXPECT_EQ(cold.value().explain, warm.value().explain);
  PlanCache::Stats stats = processor_.plan_cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  // Serial and parallel execution share one cached plan (the worker
  // count is not prepare-relevant).
  options.threads = 8;
  ASSERT_TRUE(processor_.Run(query_, options).ok());
  EXPECT_EQ(processor_.plan_cache_stats().hits, 2);
}

TEST_F(PlanCacheTest, FailedCompilationsAreNotCached) {
  RunOptions options;
  options.context_document = "site.xml";
  ASSERT_FALSE(processor_.Run("//item[", options).ok());  // parse error
  EXPECT_EQ(processor_.plan_cache_stats().entries, 0u);
}

TEST_F(PlanCacheTest, LoadingAnUnrelatedDocumentKeepsPlansCached) {
  auto before = processor_.Prepare(query_, Options());
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(processor_.plan_cache_stats().entries, 1u);
  const uint64_t generation = processor_.catalog_generation();

  // The cached plan touches only site.xml; loading a NEW document must
  // not evict it — re-Prepare returns the pointer-identical artifact.
  ASSERT_TRUE(
      processor_.LoadDocument("more.xml", testutil::TinyBibXml()).ok());
  EXPECT_GT(processor_.catalog_generation(), generation);
  EXPECT_EQ(processor_.plan_cache_stats().entries, 1u);
  auto after = processor_.Prepare(query_, Options());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().get(), before.value().get());
  // And the cached artifact still executes (from its pinned snapshot).
  EXPECT_TRUE(processor_.ExecuteAll(after.value()).ok());
}

TEST_F(PlanCacheTest, ReloadingADocumentEvictsOnlyIntersectingEntries) {
  PrepareOptions site = Options();
  PrepareOptions bib = Options();
  bib.context_document = "bib.xml";
  auto site_plan = processor_.Prepare("//item/name", site);
  auto bib_plan = processor_.Prepare("//book/title", bib);
  // A cross-document join: touches site.xml AND bib.xml.
  auto cross_plan = processor_.Prepare(
      "for $i in doc(\"site.xml\")//item/name, "
      "$t in doc(\"bib.xml\")//book/title "
      "where $i = $t return $i",
      site);
  ASSERT_TRUE(site_plan.ok());
  ASSERT_TRUE(bib_plan.ok());
  ASSERT_TRUE(cross_plan.ok()) << cross_plan.status().ToString();
  EXPECT_EQ(processor_.plan_cache_stats().entries, 3u);

  // Mutating bib.xml evicts the bib plan and the cross-doc join plan;
  // the site-only plan survives pointer-identically.
  ASSERT_TRUE(
      processor_.LoadDocument("bib.xml", testutil::TinyBibXml()).ok());
  PlanCache::Stats stats = processor_.plan_cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.invalidations, 2);

  auto site_again = processor_.Prepare("//item/name", site);
  ASSERT_TRUE(site_again.ok());
  EXPECT_EQ(site_again.value().get(), site_plan.value().get());

  auto bib_again = processor_.Prepare("//book/title", bib);
  ASSERT_TRUE(bib_again.ok());
  EXPECT_NE(bib_again.value().get(), bib_plan.value().get());
}

TEST_F(PlanCacheTest, IndexDdlEvictsJoinGraphEntriesOnly) {
  PrepareOptions joingraph = Options();
  PrepareOptions stacked = Options();
  stacked.mode = Mode::kStacked;
  PrepareOptions native = Options();
  native.mode = Mode::kNativeWhole;
  auto jg = processor_.Prepare(query_, joingraph);
  auto st = processor_.Prepare(query_, stacked);
  auto nat = processor_.Prepare(query_, native);
  ASSERT_TRUE(jg.ok());
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(nat.ok());
  EXPECT_EQ(processor_.plan_cache_stats().entries, 3u);

  // Join-graph plans consult the index set during planning; stacked and
  // native plans do not.
  processor_.DropRelationalIndexes();
  EXPECT_EQ(processor_.plan_cache_stats().entries, 2u);
  auto st_again = processor_.Prepare(query_, stacked);
  auto nat_again = processor_.Prepare(query_, native);
  ASSERT_TRUE(st_again.ok());
  ASSERT_TRUE(nat_again.ok());
  EXPECT_EQ(st_again.value().get(), st.value().get());
  EXPECT_EQ(nat_again.value().get(), nat.value().get());
  auto jg_again = processor_.Prepare(query_, joingraph);
  ASSERT_TRUE(jg_again.ok());
  EXPECT_NE(jg_again.value().get(), jg.value().get());
}

TEST_F(PlanCacheTest, UnrelatedIndexDdlKeepsUsedIndexPlansCached) {
  // The over-eviction fix: a join-graph plan records which indexes its
  // physical plan actually probes (PreparedQuery::used_indexes), and
  // index DDL only invalidates it when one of THOSE changed. Creating an
  // additional index the plan never touches keeps the cached artifact
  // pointer-identical and executable.
  auto jg = processor_.Prepare(query_, Options());
  ASSERT_TRUE(jg.ok()) << jg.status().ToString();
  ASSERT_TRUE(jg.value()->has_plan);
  ASSERT_FALSE(jg.value()->used_indexes.empty())
      << "plan probes no indexes; pick a query with an index scan";
  const uint64_t epoch_before = processor_.snapshot()->index_epoch;

  // Index DDL creating an unrelated index the plan does not probe, on
  // top of the existing set. The epoch bumps; the plan's indexes are
  // intact with identical definitions.
  engine::IndexDef unrelated;
  unrelated.name = "zz_unrelated";
  unrelated.key_columns = {"level", "kind"};
  ASSERT_TRUE(processor_.CreateRelationalIndexes({unrelated}).ok());
  EXPECT_NE(processor_.snapshot()->index_epoch, epoch_before);

  auto again = processor_.Prepare(query_, Options());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().get(), jg.value().get());  // survived, not rebuilt
  EXPECT_GE(processor_.plan_cache_stats().hits, 1);
  // And it still executes from its pinned snapshot.
  EXPECT_TRUE(processor_.ExecuteAll(again.value()).ok());

  // Dropping everything DOES touch the plan's probed indexes: evicted.
  processor_.DropRelationalIndexes();
  auto rebuilt = processor_.Prepare(query_, Options());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_NE(rebuilt.value().get(), jg.value().get());
}

TEST_F(PlanCacheTest, CapacityZeroDisablesCaching) {
  processor_.set_plan_cache_capacity(0);
  auto first = processor_.Prepare(query_, Options());
  auto second = processor_.Prepare(query_, Options());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first.value().get(), second.value().get());
  EXPECT_EQ(processor_.plan_cache_stats().entries, 0u);
}

}  // namespace
}  // namespace xqjg::api

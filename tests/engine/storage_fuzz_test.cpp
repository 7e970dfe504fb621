// Randomized differential suite pinning the columnar storage layer: for
// seeded random documents AND seeded random query shapes, every
// execution lane must agree item-for-item — native reference, stacked
// plans (late-materialized σ/π chains), and join-graph physical plans
// over both the indexed (B-tree probes over typed/dictionary columns)
// and bare (table-scan) databases, each relational lane with and
// without a spill-forcing memory budget.
//
// Scale knob: XQJG_FUZZ_ITERS raises the randomized iteration count (CI
// runs a larger sweep); the fixed-seed suites below are the floor that
// always runs.
#include <gtest/gtest.h>

#include <string>

#include "tests/testutil/differential.h"
#include "tests/testutil/fixtures.h"

namespace xqjg {
namespace {

// Eight fixed document seeds × eight query seeds each: the deterministic
// floor behind the acceptance bar (every lane ≡ native on ≥ 8 seeds).
class StorageFuzzSeed : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorageFuzzSeed, AllLanesAgreeOnRandomDocAndQueries) {
  const uint64_t doc_seed = GetParam();
  const std::string xml =
      testutil::RandomXml(doc_seed, 80 + static_cast<int>(doc_seed % 4) * 40);
  testutil::DifferentialHarness harness("fuzz.xml", xml);
  for (uint64_t q = 0; q < 8; ++q) {
    const uint64_t query_seed = doc_seed * 1000 + q;
    EXPECT_TRUE(
        harness.Check(testutil::RandomQuery(query_seed, "fuzz.xml")))
        << "doc seed " << doc_seed << ", query seed " << query_seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageFuzzSeed,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u,
                                           17u, 18u));

// Open-ended randomized sweep: document shape and query mix vary per
// iteration; XQJG_FUZZ_ITERS widens it in CI.
TEST(StorageFuzz, RandomizedSweepAcrossDocsAndQueries) {
  const int iters = testutil::FuzzIterations(12);
  for (int i = 0; i < iters; ++i) {
    const uint64_t doc_seed = 500 + static_cast<uint64_t>(i);
    const std::string xml =
        testutil::RandomXml(doc_seed, 60 + (i % 5) * 45);
    testutil::DifferentialHarness harness("fuzz.xml", xml);
    for (uint64_t q = 0; q < 5; ++q) {
      const uint64_t query_seed = doc_seed * 977 + q;
      ASSERT_TRUE(
          harness.Check(testutil::RandomQuery(query_seed, "fuzz.xml")))
          << "iteration " << i << ", doc seed " << doc_seed
          << ", query seed " << query_seed;
    }
  }
}

// Degenerate document shapes the random generator rarely hits: a single
// element, deep single-path nesting, and all-identical siblings (heavy
// dictionary-code duplication).
TEST(StorageFuzz, DegenerateDocumentShapes) {
  const char* docs[] = {
      "<r><a/></r>",
      "<r><a><b><c><d><a><b><c><d>7</d></c></b></a></d></c></b></a></r>",
      "<r><a>1</a><a>1</a><a>1</a><a>1</a><a>1</a><a>1</a></r>",
      "<r><a id=\"n0\"/><b ref=\"n0\"/><a id=\"n1\"/><b ref=\"n1\"/></r>",
  };
  for (const char* xml : docs) {
    testutil::DifferentialHarness harness("fuzz.xml", xml);
    for (uint64_t q = 0; q < 6; ++q) {
      EXPECT_TRUE(harness.Check(testutil::RandomQuery(3000 + q, "fuzz.xml")))
          << "doc " << xml << ", query seed " << (3000 + q);
    }
  }
}

// Mutation-interleaved sweep: catalog churn (loads of new documents,
// in-place reloads, index drop/create) interleaved with differential
// checks. Every step drains a cursor pinned BEFORE the mutation
// (bit-identical to the pre-mutation native reference — snapshot
// isolation over the shared block) and re-checks a fresh query across
// all lanes afterwards (the delta-reloaded / appended block serves the
// same bytes as a from-scratch build). Alternating morsel worker counts
// cover the serial and parallel columnar paths; XQJG_FUZZ_ITERS widens
// the sweep in CI (the ASan and TSan jobs both run it).
TEST(MutationInterleavedFuzz, ChurnKeepsLanesBitIdentical) {
  const int iters = testutil::FuzzIterations(6);
  for (int i = 0; i < iters; ++i) {
    const uint64_t seed = 9000 + static_cast<uint64_t>(i);
    const int threads = (i % 2) ? 8 : 1;
    ASSERT_TRUE(testutil::MutationInterleavedEpisode(seed, 5, threads))
        << "episode seed " << seed << ", threads " << threads;
  }
}

}  // namespace
}  // namespace xqjg

// Differential / fuzz harness for the storage and executor stack.
//
// One DifferentialHarness owns two XQueryProcessors over the same
// document — one with the Table VI index set, one bare — and checks a
// query's result items across every execution lane that must agree:
//
//   native whole-document interpretation      (the reference)
//   stacked plan, columnar batch executor     (late-mat σ/π chains)
//   join graph, lowered onto the same pipeline (indexed + bare plans)
//
// Each relational lane runs through Prepare + ExecuteAll twice: with no
// memory budget and with a 16 KiB budget that pushes the pipeline
// breakers (sorts, hash builds, δ) to disk. The native interpreter shares
// no code with compile, isolate, or plan, so it is an independent oracle.
//
// RandomQuery() generates seeded query shapes over the RandomXml tag
// alphabet (axis steps, name tests, value predicates, attribute joins),
// so a storage-layer rewrite is pinned by both fixed paper queries and
// randomized document × query pairs. Same seed → same query.
#ifndef XQJG_TESTS_TESTUTIL_DIFFERENTIAL_H_
#define XQJG_TESTS_TESTUTIL_DIFFERENTIAL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/api/processor.h"

namespace xqjg::testutil {

/// Deterministic random query over `uri` (expects a RandomXml-shaped
/// document: tags a–d under root r, id/ref attributes, numeric leaves).
std::string RandomQuery(uint64_t seed, const std::string& uri);

/// Iteration count for fuzz loops: XQJG_FUZZ_ITERS when set (CI runs a
/// larger sweep), else `fallback`.
int FuzzIterations(int fallback);

/// One seeded episode of catalog churn interleaved with differential
/// checks: a scripted schedule of mutations (loading a NEW document,
/// reloading an existing URI in place, dropping + re-creating the
/// relational index set) where every step
///   1. computes the native reference and opens a cursor BEFORE the
///      mutation (pinning the pre-mutation snapshot),
///   2. applies the mutation,
///   3. drains the pinned cursor and requires it bit-identical to the
///      pre-mutation reference (snapshot isolation under churn), and
///   4. re-checks a fresh query across every lane against the mutated
///      catalog (delta-reloaded / appended blocks serve the same bytes).
/// Same seed → same schedule. `threads` is the columnar morsel worker
/// count for both the pinned cursor and the fresh checks.
::testing::AssertionResult MutationInterleavedEpisode(uint64_t seed,
                                                      int steps,
                                                      int threads);

class DifferentialHarness {
 public:
  /// Loads `xml` under `uri` into both processors and builds the Table VI
  /// index set on the indexed one. Aborts on parse failure.
  DifferentialHarness(const std::string& uri, const std::string& xml);

  /// Runs `query` through every lane at both memory budgets and compares
  /// items against the native reference. Any run error is a failure (the
  /// generator only emits supported shapes). `threads` sets the columnar
  /// executors' morsel worker count on every relational lane (1 =
  /// serial; results must be bit-identical at any value and any budget —
  /// that is the contract this harness enforces).
  ::testing::AssertionResult Check(const std::string& query, int threads = 1);

  api::XQueryProcessor& indexed() { return indexed_; }
  api::XQueryProcessor& bare() { return bare_; }

 private:
  api::XQueryProcessor indexed_;
  api::XQueryProcessor bare_;
};

}  // namespace xqjg::testutil

#endif  // XQJG_TESTS_TESTUTIL_DIFFERENTIAL_H_

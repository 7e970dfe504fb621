// Shared test fixtures: tiny XML documents and one-call pipeline helpers
// (parse → normalize → compile) so suites don't re-derive the plumbing.
#ifndef XQJG_TESTS_TESTUTIL_FIXTURES_H_
#define XQJG_TESTS_TESTUTIL_FIXTURES_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/algebra/operators.h"
#include "src/common/status.h"
#include "src/common/value.h"
#include "src/engine/columnar/column_batch.h"
#include "src/engine/exec_stream.h"
#include "src/xml/infoset.h"

namespace xqjg {

/// Lets gtest print Values (and tables of them) in failure messages.
void PrintTo(const Value& value, std::ostream* os);

}  // namespace xqjg

namespace xqjg::testutil {

/// A 13-node bibliography document (books with authors/titles/prices);
/// small enough to hand-check pre/size/level assertions against.
const char* TinyBibXml();

/// A 3-level <site> document shaped like a miniature XMark instance.
const char* TinySiteXml();

/// Deterministic pseudo-random XML document for differential testing:
/// nested elements over a small tag alphabet with id/ref attributes and
/// numeric text leaves. Same (seed, target_nodes) → same document.
std::string RandomXml(uint64_t seed, int target_nodes = 120);

/// Parses `xml` into a fresh DocTable under `uri`. Aborts the test binary
/// on parse failure (fixtures are assumed well-formed).
xml::DocTable LoadDoc(const std::string& uri, const std::string& xml);

/// parse → normalize → compile. `context_document` resolves absolute
/// paths; leave empty for queries that call doc(...).
Result<algebra::OpPtr> CompileToPlan(const std::string& query,
                                     const std::string& context_document = "");

/// Drains an opened result stream into the full pre-rank sequence, e.g.
///   Drain(columnar::OpenPlanStreamColumnar(plan, db, options, &stats)).
/// An open error, or an error mid-drain, is returned as is.
Result<std::vector<int64_t>> Drain(
    Result<std::unique_ptr<engine::SequenceStream>> stream);

/// The logical rows of `batch`, in order, one Value per column — the
/// form in which tests compare a pipeline result with a literal table:
///   EXPECT_EQ(Rows(columnar::EvaluateColumnar(plan, doc).value()),
///             (std::vector<std::vector<Value>>{{Value::Int(1)}}));
std::vector<std::vector<Value>> Rows(
    const engine::columnar::ColumnBatch& batch);

}  // namespace xqjg::testutil

#endif  // XQJG_TESTS_TESTUTIL_FIXTURES_H_

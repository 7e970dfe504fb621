// ResultCursor — streaming result delivery for prepared queries.
//
// Execute(prepared) does not materialize every serialized item up front:
// the cursor opens a pull-based SequenceStream on the first fetch and
// serializes items batch by batch as the caller FetchNext()s them. On
// the pipelined columnar lanes the stream is the live pipeline — pulled
// pre ranks flow out of the final sort breaker on demand — so an open
// cursor retains O(batch) tracked engine state (plus spill files, which
// are disk), not O(result). The native lanes serialize while they
// evaluate, so their items arrive materialized behind the same interface.
//
// Snapshot pinning: a cursor holds shared ownership of the catalog
// snapshot its PreparedQuery was compiled against. Catalog mutations
// publish new snapshots instead of touching pinned ones, so an open
// cursor keeps draining correct results even while documents are loaded
// or indexes change concurrently — there is no staleness mid-stream and
// no drain-before-mutate requirement.
#ifndef XQJG_API_CURSOR_H_
#define XQJG_API_CURSOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/api/catalog.h"
#include "src/api/prepared_query.h"
#include "src/common/status.h"
#include "src/common/value.h"
#include "src/engine/exec_options.h"
#include "src/engine/exec_stream.h"

namespace xqjg::api {

/// Execution-time knobs: how (not which) plan runs.
struct ExecuteOptions {
  /// DNF budgets. The wall-clock budget applies per FetchNext call (the
  /// underlying plan execution happens inside the first fetch, so a run
  /// that would previously time out still does); max_intermediate_rows
  /// bounds the relational executors' intermediates.
  engine::ExecLimits limits;
  /// Morsel workers for the columnar executors (1 = serial; ignored by
  /// the native lanes). Results are independent of the worker count —
  /// per-morsel outputs merge in morsel order — so any value is safe for
  /// differential comparison.
  int threads = 1;
  /// Values for the query's external parameters, by name (without '$').
  /// Every parameter the query references must be bound, and every entry
  /// must name a referenced parameter; Execute rejects mismatches.
  std::map<std::string, Value> parameters;
};

/// Per-execution observability (one ResultCursor = one execution).
struct ExecutionStats {
  /// Producing the underlying result sequence (paid inside the first
  /// FetchNext — what the paper's Table IX reports as execution time).
  double execute_seconds = 0.0;
  /// Cumulative serialization time across all fetches.
  double fetch_seconds = 0.0;
  /// Result cardinality; -1 until the plan ran (Prime / first fetch).
  int64_t rows_total = -1;
  int64_t rows_fetched = 0;
  /// Intermediate-materialization counters from the relational executors.
  engine::ExecStats engine;
};

class XQueryProcessor;

/// Yields a prepared query's serialized result items in batches. Not
/// thread-safe itself (one cursor = one session's iteration state), but
/// any number of cursors over the same PreparedQuery may run in parallel,
/// and catalog mutations never disturb an open cursor (see above).
class ResultCursor {
 public:
  ResultCursor(const ResultCursor&) = delete;
  ResultCursor& operator=(const ResultCursor&) = delete;

  /// Returns up to `max_items` serialized items, in result-sequence
  /// order. The first call runs the physical plan (under the execution
  /// limits); every call budgets its serialization work with the
  /// wall-clock limit. An empty batch means the cursor is exhausted;
  /// max_items == 0 is an error so that signal stays unambiguous.
  Result<std::vector<std::string>> FetchNext(size_t max_items);

  /// Drains the cursor: every remaining item in one vector (today's
  /// RunResult semantics).
  Result<std::vector<std::string>> FetchAll();

  /// Runs the physical plan / opens the result stream now instead of
  /// inside the first FetchNext. Idempotent. Callers that account
  /// execution separately from delivery (the query server runs the plan
  /// under an admission ticket, then serves fetches without holding a
  /// slot) prime eagerly; plain library use can keep relying on the lazy
  /// first fetch. Priming does NOT materialize a pipelined result — the
  /// stream's tail is drained by the fetches.
  Status Prime() { return EnsureExecuted(); }

  /// True once every item has been fetched. False before the first
  /// fetch, even for empty results: the plan has not run yet, or — for
  /// a streaming tail — the stream has not reported its end.
  bool exhausted() const {
    if (!executed_) return false;
    if (stream_) return stream_done_ && pending_.empty();
    return next_ >= rows_total_;
  }

  /// Tracked bytes this open cursor still retains: the engine stream's
  /// live state (breaker buffers, merge cursors; materialized lanes
  /// report their whole vector) plus the cursor's own pull buffer and,
  /// on the native lanes, the not-yet-delivered serialized items.
  int64_t retained_memory_bytes() const;

  const ExecutionStats& stats() const { return stats_; }
  const PreparedQuery& prepared() const { return *prepared_; }
  /// The catalog snapshot this execution reads (the one Prepare pinned —
  /// shared ownership through the PreparedQuery, so it outlives any
  /// catalog mutation).
  const CatalogSnapshot& catalog() const { return *prepared_->catalog; }

 private:
  friend class XQueryProcessor;

  ResultCursor(std::shared_ptr<const PreparedQuery> prepared,
               const ExecuteOptions& options, std::vector<Value> params)
      : prepared_(std::move(prepared)),
        options_(options),
        params_(std::move(params)) {}

  /// Runs the physical plan on first use; opens stream_ (relational
  /// modes) or fills native_items_ (native modes).
  Status EnsureExecuted();

  /// The relational lanes' execution options: this cursor's limits,
  /// worker count, parameter bindings and stats sink.
  engine::ExecOptions RelationalOptions();

  /// Tops pending_ up to `want` pre ranks from stream_ and latches
  /// stream_done_ on a short pull.
  Status PullPending(size_t want);

  std::shared_ptr<const PreparedQuery> prepared_;
  ExecuteOptions options_;
  /// Parameter values by binding slot (resolved from options_.parameters
  /// against prepared_->parameters at Execute time).
  std::vector<Value> params_;

  bool executed_ = false;
  /// Relational modes: the live result stream and the pull buffer of
  /// pre ranks that have been pulled but not yet serialized (a timed-out
  /// fetch keeps them, so a retry re-serializes without skipping items).
  std::unique_ptr<engine::SequenceStream> stream_;
  std::vector<int64_t> pending_;
  bool stream_done_ = false;
  int64_t delivered_ = 0;  ///< items handed out (streaming lane)
  /// Native modes: the engine serializes during evaluation, so items
  /// arrive materialized; the cursor hands them out batch by batch.
  size_t rows_total_ = 0;
  size_t next_ = 0;
  std::vector<std::string> native_items_;
  ExecutionStats stats_;
};

}  // namespace xqjg::api

#endif  // XQJG_API_CURSOR_H_

// SequenceStream — the pull interface between an executed relational
// query and the API cursor.
//
// A stream yields the result sequence's pre ranks batch by batch. For
// the pipelined columnar executors the stream is the live pipeline: the
// final sort breaker has already consumed its input when the stream is
// handed out (so rows_total() is known and the expensive work is
// attributable to Prime/Execute), and everything after it — run merge,
// batch construction, item extraction — happens on demand as the caller
// pulls. An open cursor therefore retains O(batch) tracked state plus
// any spill files, not O(result).
//
// VectorSequenceStream adapts an already materialized sequence (the
// physical-plan executor's in-memory tail) to the same interface, so the
// cursor has a single drain path.
#ifndef XQJG_ENGINE_EXEC_STREAM_H_
#define XQJG_ENGINE_EXEC_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace xqjg::engine {

class SequenceStream {
 public:
  virtual ~SequenceStream() = default;

  /// Result cardinality, or -1 while it is still unknown. Most streams
  /// know it at open time (the pipeline is primed through its final
  /// breaker before the stream is handed out); a spilled plan tail does
  /// not — DISTINCT and the NULL-item skip decide the count row by row
  /// during the run merge — so it reports -1 until the drain finishes.
  virtual int64_t rows_total() const = 0;

  /// Appends up to `max_rows` pre ranks to *out. Appending fewer than
  /// `max_rows` (in particular zero) means the sequence is exhausted.
  virtual Status Next(size_t max_rows, std::vector<int64_t>* out) = 0;

  /// Tracked bytes of intermediate state the stream still retains
  /// (breaker buffers and merge state; spill files excluded — they are
  /// disk, which is the point).
  virtual int64_t retained_bytes() const = 0;
};

/// Adapter over a fully materialized sequence. retained_bytes() reports
/// the whole vector: a materialized result IS retained state, and the
/// serving tests assert the pipelined lanes stay below what this adapter
/// would report.
class VectorSequenceStream final : public SequenceStream {
 public:
  explicit VectorSequenceStream(std::vector<int64_t> pres)
      : pres_(std::move(pres)) {}

  int64_t rows_total() const override {
    return static_cast<int64_t>(pres_.size());
  }

  Status Next(size_t max_rows, std::vector<int64_t>* out) override {
    const size_t end = std::min(pres_.size(), next_ + max_rows);
    out->insert(out->end(), pres_.begin() + static_cast<ptrdiff_t>(next_),
                pres_.begin() + static_cast<ptrdiff_t>(end));
    next_ = end;
    return Status::OK();
  }

  int64_t retained_bytes() const override {
    return static_cast<int64_t>(pres_.size() * sizeof(int64_t));
  }

 private:
  std::vector<int64_t> pres_;
  size_t next_ = 0;
};

}  // namespace xqjg::engine

#endif  // XQJG_ENGINE_EXEC_STREAM_H_

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
#ifndef XQJG_ENGINE_EXEC_STREAM_H_
#define XQJG_ENGINE_EXEC_STREAM_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace xqjg::engine {

class SequenceStream {
 public:
  virtual ~SequenceStream() = default;

  /// Result cardinality, known at open time: the pipeline is primed
  /// through its final breaker before the stream is handed out.
  virtual int64_t rows_total() const = 0;

  /// Appends up to `max_rows` pre ranks to *out. Appending fewer than
  /// `max_rows` (in particular zero) means the sequence is exhausted.
  virtual Status Next(size_t max_rows, std::vector<int64_t>* out) = 0;

  /// Tracked bytes of intermediate state the stream still retains
  /// (breaker buffers and merge state; spill files excluded — they are
  /// disk, which is the point).
  virtual int64_t retained_bytes() const = 0;
};

}  // namespace xqjg::engine

#endif  // XQJG_ENGINE_EXEC_STREAM_H_

// Spill-to-disk primitives for the pipelined columnar executors.
//
// When a pipeline breaker's buffered state would exceed
// ExecLimits::max_memory_bytes, it moves that state into anonymous
// temporary files (std::tmpfile — unlinked on creation, so crashes leak
// no paths and destruction is the only cleanup needed):
//
//   * sorts flush sorted runs and k-way-merge them on read-back, with a
//     run-index tie-break that reproduces the in-memory stable sort
//     bit-for-bit (runs are consecutive input ranges, so an earlier run
//     means a smaller original index);
//   * hash-join build sides and duplicate elimination hash-partition
//     their rows Grace-style and process one partition at a time.
//
// One framing covers every spilled row in the system: tagged Value rows,
// fixed-arity per file, so readers need no per-file header.
#ifndef XQJG_ENGINE_SPILL_H_
#define XQJG_ENGINE_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/engine/exec_options.h"

namespace xqjg::engine {

/// Grace partition fan-out for spilled hash state. 32 partitions cut the
/// resident build fraction to ~3% while the per-partition files stay
/// large enough for sequential I/O.
constexpr size_t kSpillPartitions = 32;
/// Floor under any spill decision: a buffer below this many rows never
/// flushes, whatever the governor says — prevents a run (or partition
/// write) per row at pathologically tiny budgets.
constexpr size_t kMinSpillRows = 1024;

/// Partition selector over a row's key hash. Uses the high bits so it
/// stays independent of any power-of-two bucket masking done with the
/// low bits of the same hash.
inline size_t SpillPartition(size_t h) {
  return (h >> 59) & (kSpillPartitions - 1);
}

/// One anonymous spill file: append-only until Rewind(), then a single
/// sequential read pass. Move-only RAII — closing the FILE* releases the
/// (already unlinked) disk space.
class SpillFile {
 public:
  SpillFile() = default;
  SpillFile(SpillFile&& other) noexcept
      : file_(other.file_), bytes_(other.bytes_), rows_(other.rows_) {
    other.file_ = nullptr;
    other.bytes_ = 0;
    other.rows_ = 0;
  }
  SpillFile& operator=(SpillFile&& other) noexcept;
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  ~SpillFile() { Close(); }

  /// Appends `n` raw bytes, creating the temp file on first use.
  Status Append(const void* data, size_t n);
  /// Flushes and seeks to the start for the read pass.
  Status Rewind();
  /// Reads up to `n` bytes; short count at end-of-file, 0 when exhausted.
  Result<size_t> Read(void* out, size_t n);
  void Close();

  bool open() const { return file_ != nullptr; }
  int64_t bytes_written() const { return bytes_; }
  /// Row count is bookkeeping for the writers below (Append alone does
  /// not advance it).
  int64_t rows() const { return rows_; }

 private:
  friend Status SpillAppendRow(SpillFile*, const Value*, size_t);

  std::FILE* file_ = nullptr;
  int64_t bytes_ = 0;
  int64_t rows_ = 0;
};

/// Appends one fixed-arity row of Values (tagged binary framing).
Status SpillAppendRow(SpillFile* file, const Value* row, size_t arity);
/// Reads the next Value row; false when the file is exhausted. A partial
/// row (truncated file) is an Internal error.
Result<bool> SpillReadRow(SpillFile* file, Value* row, size_t arity);

/// Approximate in-memory bytes of one Value row — the charge unit for
/// breaker buffers that hold rows as Values.
int64_t ValueRowBytes(const Value* row, size_t arity);

/// External-merge sorter over boxed Value rows — the spill engine behind
/// every order-sensitive breaker (the serialize sort, Grace-join order
/// restoration, and δ survivor merge). Rows accumulate in memory
/// (charged against `budget`); when the governor says spill, the buffer
/// is stable-sorted and flushed as one sorted run. Finish() sorts the
/// tail run; Next() merges runs with a run-index tie-break, and the run
/// heads it holds stay charged. Runs are consecutive input
/// ranges, so (key, run index, position in run) reproduces a stable
/// in-memory sort of the whole input bit-for-bit — which is how every
/// spilled path stays order-identical to the serial executor.
class ExternalValueSorter {
 public:
  /// `keys` are column indices compared in order via Value::SortLess;
  /// rows equal on every key keep their input order. `stats` (nullable)
  /// receives spill_bytes / spill_events accounting.
  ExternalValueSorter(BudgetClock* clock, MemoryBudget* budget,
                      ExecStats* stats, size_t arity, std::vector<int> keys)
      : clock_(clock),
        budget_(budget),
        stats_(stats),
        arity_(arity),
        keys_(std::move(keys)),
        charge_(budget) {}

  Status Add(std::vector<Value> row);

  /// Seals the input: sorts the in-memory tail (or opens the run
  /// cursors). Must be called exactly once before the first Next().
  Status Finish();

  /// Pops the next row in sort order; false when exhausted.
  Result<bool> Next(std::vector<Value>* row);

  int64_t total_rows() const { return total_rows_; }
  bool spilled() const { return !runs_.empty(); }

 private:
  struct RunCursor {
    std::vector<Value> row;
    bool live = false;
  };

  bool RowLess(const std::vector<Value>& a,
               const std::vector<Value>& b) const;
  /// Heap order over run indices: true when run `b`'s head comes first
  /// (the smaller row; on equal rows the earlier run, which keeps the
  /// merge stable).
  bool HeapAfter(uint32_t a, uint32_t b) const;
  Status SortBuf();
  Status FlushRun();

  BudgetClock* clock_;
  MemoryBudget* budget_;
  ExecStats* stats_;
  const size_t arity_;
  const std::vector<int> keys_;
  MemoryCharge charge_;
  std::vector<std::vector<Value>> buf_;
  size_t pos_ = 0;  ///< in-memory read cursor (always 0 before Finish)
  std::vector<SpillFile> runs_;
  std::vector<RunCursor> cursors_;
  /// Min-heap (under HeapAfter) of the runs whose cursor is live.
  std::vector<uint32_t> heap_;
  int64_t total_rows_ = 0;
};

}  // namespace xqjg::engine

#endif  // XQJG_ENGINE_SPILL_H_

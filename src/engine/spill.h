// Spill-to-disk for the pipeline breakers of the columnar executor.
//
// When a breaker's buffered state would exceed ExecLimits::max_memory_bytes,
// it moves that state into an anonymous temporary file (std::tmpfile —
// unlinked on creation, so crashes leak no paths and destruction is the
// only cleanup needed). There is one spill format and one file per user:
//
//   * A block is one ColumnBatch window in typed form: int64 and double
//     columns raw with a null mask, plain strings once per block (lengths,
//     then bytes), dictionary strings as codes into the dictionary the
//     column already shares (the file keeps it alive), and kMixed columns
//     as tagged values. Only kMixed cells are boxed as Values.
//   * An ExternalSorter writes its sorted runs as consecutive blocks of
//     one file; a run is a byte range of it. Finish() merges runs in
//     passes of kMergeFanIn until at most kMergeFanIn are left, so neither
//     descriptors nor the charged run heads grow with the run count. Runs
//     are consecutive input ranges and the merge breaks key ties by run
//     index, so (key, run, position) reproduces the stable in-memory sort
//     of the whole input bit for bit.
//   * A SpillPartitionSet hash-partitions batches into kSpillPartitions
//     partitions of one file; a partition is a list of blocks. The Grace
//     hash join and δ read each partition back as batches and rerun their
//     in-memory algorithm on it. Arrival sequence numbers travel as an
//     extra int64 column, and an ExternalSorter keyed on them restores
//     the serial order.
#ifndef XQJG_ENGINE_SPILL_H_
#define XQJG_ENGINE_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/common/value_column.h"
#include "src/engine/columnar/column_batch.h"
#include "src/engine/exec_options.h"

namespace xqjg::engine {

/// Grace partition fan-out for spilled hash state. 32 partitions cut the
/// resident build fraction to ~3% while the per-partition blocks stay
/// large enough for sequential I/O.
constexpr size_t kSpillPartitions = 32;
/// Floor under any spill decision: a buffer below this many rows never
/// flushes, whatever the governor says — prevents a run (or partition
/// write) per row at pathologically tiny budgets.
constexpr size_t kMinSpillRows = 1024;
/// Runs merged at once. A merge holds one block per run it reads, so this
/// bounds the merge's memory and its reads per emitted window.
constexpr size_t kMergeFanIn = 64;

/// Partition selector over a row's key hash. Uses the high bits so it
/// stays independent of any power-of-two bucket masking done with the
/// low bits of the same hash.
inline size_t SpillPartition(size_t h) {
  return (h >> 59) & (kSpillPartitions - 1);
}

/// One anonymous spill file of typed batch blocks: blocks are appended at
/// the end and read back by offset, so any number of runs or partitions
/// share the one descriptor.
class SpillFile {
 public:
  SpillFile() = default;
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  ~SpillFile();

  /// Appends the logical rows of `batch` as one block, creating the file
  /// on first use.
  Status Append(const columnar::ColumnBatch& batch, BudgetClock* clock);
  /// Decodes the block at *offset into a dense batch (no schema) and
  /// advances *offset past it.
  Status Read(int64_t* offset, columnar::ColumnBatch* out,
              BudgetClock* clock);
  /// Bytes written so far, which is also the offset of the next block.
  int64_t size() const { return size_; }

 private:
  std::FILE* file_ = nullptr;
  int64_t size_ = 0;
  /// Dictionaries that dictionary blocks index (kept alive for reads).
  std::vector<std::shared_ptr<const StringDict>> dicts_;
};

/// External-merge sorter over column batches — the one sort of every
/// order-sensitive breaker (the serialize sort, and the order restoration
/// of the Grace join and δ). Batches accumulate in memory (charged against
/// `budget`) and sort as a (batch, row) permutation with a stable sort.
/// When the governor says spill, the buffer is sorted and written as one
/// run; Finish() then merges (see the file comment). Either way the output
/// is the stable sort of the whole input on `keys`.
class ExternalSorter {
 public:
  /// `keys` are column indices compared in order via
  /// ValueColumn::SortLessAt; rows equal on every key keep their input
  /// order. `stats` (nullable) receives spill_bytes / spill_events.
  ExternalSorter(BudgetClock* clock, MemoryBudget* budget, ExecStats* stats,
                 std::vector<int> keys);
  ~ExternalSorter();

  Status Add(columnar::ColumnBatch batch);

  /// Seals the input: sorts the in-memory buffer, or flushes it and opens
  /// the run merge. Must be called exactly once before the first Next().
  Status Finish();

  /// The next ≤kStreamRows rows in sort order as one dense batch with no
  /// schema; false when exhausted. The merge checks the deadline once per
  /// window and ticks the clock per row.
  Result<bool> Next(columnar::ColumnBatch* out);

  int64_t total_rows() const { return total_rows_; }
  bool spilled() const { return !runs_.empty(); }

 private:
  struct RowRef {
    uint32_t batch;
    uint32_t row;  ///< logical row within the batch
  };
  struct Run {
    int64_t begin;  ///< byte range of the run's blocks in file_
    int64_t end;
  };
  class Merge;

  bool RefLess(const RowRef& a, const RowRef& b) const;
  Status SortBuffer();
  /// Dense batch of perm_[begin, end).
  columnar::ColumnBatch Gather(size_t begin, size_t end) const;
  Status FlushRun();
  Status MergePass();

  BudgetClock* clock_;
  MemoryBudget* budget_;
  ExecStats* stats_;
  const std::vector<int> keys_;
  MemoryCharge charge_;
  std::vector<columnar::ColumnBatch> bufs_;
  size_t buffered_rows_ = 0;
  std::vector<RowRef> perm_;
  size_t next_ = 0;  ///< in-memory read cursor into perm_
  SpillFile file_;
  std::vector<Run> runs_;
  columnar::ColumnBatch last_row_;  ///< the last run's last row
  std::unique_ptr<Merge> merge_;
  int64_t total_rows_ = 0;
};

/// kSpillPartitions hash partitions of column batches in one spill file.
class SpillPartitionSet {
 public:
  SpillPartitionSet(BudgetClock* clock, ExecStats* stats)
      : clock_(clock), stats_(stats) {}

  /// Writes logical row r of `batch` to partition part[r], one block per
  /// non-empty partition; rows whose part[r] is ≥ kSpillPartitions are
  /// dropped. Counts one spill event.
  Status Append(const columnar::ColumnBatch& batch,
                const std::vector<uint8_t>& part);

  /// Reads block *next of partition `p` (in append order) as a dense batch
  /// with no schema, and advances *next. False once `p` is exhausted.
  Result<bool> Read(size_t p, size_t* next, columnar::ColumnBatch* out);

  int64_t rows(size_t p) const { return parts_[p].rows; }

 private:
  struct Partition {
    std::vector<int64_t> blocks;  ///< block offsets, in append order
    int64_t rows = 0;
  };

  BudgetClock* clock_;
  ExecStats* stats_;
  SpillFile file_;
  Partition parts_[kSpillPartitions];
};

}  // namespace xqjg::engine

#endif  // XQJG_ENGINE_SPILL_H_

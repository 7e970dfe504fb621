// Execution knobs of the columnar batch pipeline, the executor of every
// relational plan: DNF budgets and observable statistics.
#ifndef XQJG_ENGINE_EXEC_OPTIONS_H_
#define XQJG_ENGINE_EXEC_OPTIONS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/common/str.h"
#include "src/common/value.h"

namespace xqjg::engine {

struct ExecLimits {
  /// Abort with Status::Timeout once this wall-clock budget is exceeded
  /// (<= 0: unlimited). Emulates the paper's 20-hour DNF cutoff.
  double timeout_seconds = -1.0;
  /// Abort when an intermediate table exceeds this many rows (<= 0:
  /// unlimited); a second DNF guard against runaway Cartesian products.
  int64_t max_intermediate_rows = -1;
  /// Memory budget for the columnar executors' *tracked intermediate*
  /// state, in bytes (<= 0: unlimited). Unlike the two abort knobs above
  /// this one GOVERNS instead of tripping: pipeline breakers (sorts, hash
  /// build sides, duplicate elimination) spill to disk when their buffered
  /// state would exceed the budget, and execution completes with identical
  /// results. Non-spillable breaker state (rank materialization, shared
  /// sub-DAG memos, nested-loop inner sides) is tracked — it shows up in
  /// ExecStats::peak_memory_bytes — but never aborts. The native
  /// interpreter ignores this knob (it stays materializing by design).
  int64_t max_memory_bytes = -1;
};

/// Counters every executor fills in (when given a sink); the bench
/// trajectory and regression tests read these.
struct ExecStats {
  int64_t rows_out = 0;
  /// Tuples written into materialized intermediates. Memoized re-reads of
  /// a shared sub-plan must NOT re-count (regression: the old evaluator
  /// deep-copied each memo hit, doubling this).
  int64_t tuples_materialized = 0;
  /// High-water mark of tracked intermediate bytes (pipeline-breaker
  /// buffers; the columnar executors charge these against
  /// ExecLimits::max_memory_bytes).
  int64_t peak_memory_bytes = 0;
  /// Bytes written to spill files over the execution, and the number of
  /// times a breaker decided to spill (a run flush, a partition flush, or
  /// a build-side handover counts once each).
  int64_t spill_bytes = 0;
  int64_t spill_events = 0;
};

struct ExecOptions {
  ExecOptions() = default;
  // NOLINTNEXTLINE(runtime/explicit): ExecLimits-only callers predate this.
  ExecOptions(const ExecLimits& l) : limits(l) {}

  ExecLimits limits;
  /// Morsel workers for the columnar executors (1 = serial). Results are
  /// independent of the worker count: morsel outputs merge in
  /// morsel-index order.
  int threads = 1;
  /// Execute-time values for the plan's parameter markers, indexed by
  /// binding slot (null: no parameters). Not owned; must outlive the
  /// execution.
  const std::vector<Value>* params = nullptr;
  ExecStats* stats = nullptr;  ///< optional sink, not owned
};

/// Thrown by sort comparators when the wall-clock budget expires mid-sort
/// (a comparator cannot return Status); always caught inside the executor
/// and converted to Status::Timeout.
struct BudgetExhausted {};

/// One DNF budget, checkable from every loop. Deadline reads are amortized
/// via Tick()/TickThrow() so tight per-row loops pay ~one clock read per
/// 4096 iterations.
///
/// A clock is either *serial* (the default: plain mutable counters, one
/// owning thread — exactly the pre-parallelism behavior) or a *worker*
/// clock handed out by RegionBudget::Worker() for one morsel of a parallel
/// region. A worker clock keeps its own tick counter (no shared mutable
/// state on the hot path) and cooperates through the region's shared
/// atomic core: local row production is flushed into the joint counter
/// every kFlushStride rows, and every Tick observes the region's abort
/// latch so one worker hitting a budget stops the others promptly.
class BudgetClock {
 public:
  BudgetClock() = default;
  explicit BudgetClock(const ExecLimits& limits)
      : max_rows_(limits.max_intermediate_rows) {
    if (limits.timeout_seconds > 0) {
      deadline_ =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(limits.timeout_seconds));
      have_deadline_ = true;
    }
  }

  /// Row budget + deadline; call once per materialized intermediate.
  Status CheckRows(int64_t rows) const {
    if (RowsExceeded(rows)) return RowBudgetExceeded();
    if (region_ && region_->aborted.load(std::memory_order_relaxed)) {
      return region_->Error();
    }
    return CheckDeadline();
  }

  Status CheckDeadline() const {
    if (Expired()) {
      return Status::Timeout("execution exceeded wall-clock budget (DNF)");
    }
    return Status::OK();
  }

  bool Expired() const {
    return have_deadline_ && std::chrono::steady_clock::now() > deadline_;
  }

  /// Amortized deadline check for row-producing loops. Worker clocks also
  /// observe the region abort latch here (one relaxed load per call).
  Status Tick() {
    if (region_ && region_->aborted.load(std::memory_order_relaxed)) {
      return region_->Error();
    }
    if ((++tick_ & kStrideMask) == 0) return CheckDeadline();
    return Status::OK();
  }

  /// Amortized deadline check for sort comparators: throws BudgetExhausted
  /// (callers wrap the sort in try/catch and surface Status::Timeout).
  /// Worker clocks observe the region abort latch like Tick() does — a
  /// comparator must not keep sorting after another worker hit a budget
  /// (regression: this check used to consult only the local deadline).
  void TickThrow() {
    if (region_ && region_->aborted.load(std::memory_order_relaxed)) {
      throw BudgetExhausted{};
    }
    if ((++tick_ & kStrideMask) == 0 && Expired()) throw BudgetExhausted{};
  }

  /// Row budget for a growing intermediate plus the amortized deadline —
  /// the per-iteration guard of every tuple-producing loop in the
  /// executors. The row comparison is a plain integer check (paid on
  /// every call); the clock read is amortized like Tick().
  Status TickRows(int64_t rows) {
    if (region_ && max_rows_ > 0 && rows - reported_ >= kFlushStride) {
      FlushLocalRows(rows);
    }
    if (RowsExceeded(rows)) return RowBudgetExceeded();
    return Tick();
  }

  /// Worker clocks only: folds the still-unreported tail of this clock's
  /// local container into the region's joint row counter and returns the
  /// row-budget verdict. Call exactly once when the local container is
  /// complete (morsel end) — without it the joint counter undercounts by
  /// up to kFlushStride rows per morsel. Serial clocks: plain row check.
  Status FinishLocalRows(int64_t rows) {
    if (region_ && max_rows_ > 0 && rows > reported_) FlushLocalRows(rows);
    if (RowsExceeded(rows)) return RowBudgetExceeded();
    return Status::OK();
  }

  /// Row-budget check alone — for callback loops that cannot propagate
  /// Status directly (pair with TickQuiet()/Expired() for the deadline).
  /// Worker clocks count `rows` on top of the rest of the region's
  /// production as of the last flush.
  bool RowsExceeded(int64_t rows) const {
    return max_rows_ > 0 && others_ + rows > max_rows_;
  }

  /// Advances the tick counter and reports whether the deadline is due for
  /// a check — for callback loops that cannot propagate Status directly.
  bool TickQuiet() { return (++tick_ & kStrideMask) == 0; }

  /// True when another worker in this clock's parallel region already hit
  /// a budget — callback loops should stop early and let the region
  /// surface the first error. Always false for serial clocks.
  bool RegionAborted() const {
    return region_ && region_->aborted.load(std::memory_order_relaxed);
  }

  int64_t max_rows() const { return max_rows_; }

 private:
  friend class RegionBudget;

  static constexpr uint64_t kStrideMask = 0xFFF;  // every 4096 calls
  /// Rows a worker may produce between flushes into the joint counter;
  /// bounds the region's row-budget overshoot at workers × kFlushStride.
  static constexpr int64_t kFlushStride = 256;

  /// Shared core of one parallel region's cooperative budget: the joint
  /// row counter plus a set-once first-error latch (see RegionBudget).
  struct RegionCore {
    std::atomic<int64_t> rows{0};
    std::atomic<bool> aborted{false};

    void Abort(const Status& error) {
      std::lock_guard<std::mutex> lock(mu);
      if (!aborted.load(std::memory_order_relaxed)) {
        first_error = error;
        aborted.store(true, std::memory_order_release);
      }
    }
    Status Error() const {
      std::lock_guard<std::mutex> lock(mu);
      return first_error.ok()
                 ? Status::Timeout("parallel region aborted (DNF)")
                 : first_error;
    }

    mutable std::mutex mu;
    Status first_error;  ///< guarded by mu; set exactly once
  };

  Status RowBudgetExceeded() const {
    return Status::Timeout(
        StrPrintf("intermediate table exceeds %lld rows (DNF)",
                  static_cast<long long>(max_rows_)));
  }

  /// Publishes the delta since the last flush and refreshes this worker's
  /// view of everyone else's production.
  void FlushLocalRows(int64_t rows) {
    const int64_t delta = rows - reported_;
    const int64_t total =
        region_->rows.fetch_add(delta, std::memory_order_relaxed) + delta;
    reported_ = rows;
    others_ = total - rows;
  }

  std::chrono::steady_clock::time_point deadline_;
  bool have_deadline_ = false;
  int64_t max_rows_ = -1;
  uint64_t tick_ = 0;
  // Worker mode (clocks handed out by RegionBudget::Worker()); all three
  // stay at their defaults on serial clocks, making every check above
  // reduce to the original serial logic.
  RegionCore* region_ = nullptr;  ///< not owned; outlives the worker clock
  int64_t reported_ = 0;          ///< local rows already in the joint counter
  int64_t others_ = 0;            ///< joint total minus this clock's share
};

/// Cooperative DNF budget for one parallel region: owns the shared atomic
/// row-budget core and hands out per-worker clocks (fresh tick counters
/// over the parent clock's deadline and row limits). The region must
/// outlive every worker clock it vends. Morsel bodies route any non-OK
/// status into Abort(); the first error wins and is what status() reports
/// — so a row-budget abort on worker 3 surfaces as the row-budget error,
/// not as a generic failure of whoever noticed the latch.
class RegionBudget {
 public:
  explicit RegionBudget(const BudgetClock& parent) : parent_(parent) {
    // Regions do not nest: a worker clock used as a parent would drag its
    // old region pointer into the copies.
    parent_.region_ = nullptr;
    parent_.reported_ = 0;
    parent_.others_ = 0;
  }

  RegionBudget(const RegionBudget&) = delete;
  RegionBudget& operator=(const RegionBudget&) = delete;

  /// A private clock for one morsel: shares the joint row counter and
  /// abort latch, owns its tick counter. Pair with FinishLocalRows at
  /// morsel end.
  BudgetClock Worker() {
    BudgetClock clock = parent_;
    clock.tick_ = 0;
    clock.region_ = &core_;
    return clock;
  }

  void Abort(const Status& error) { core_.Abort(error); }

  /// OK unless some worker aborted; then the first recorded error.
  Status status() const {
    return core_.aborted.load(std::memory_order_acquire) ? core_.Error()
                                                         : Status::OK();
  }

 private:
  BudgetClock parent_;
  BudgetClock::RegionCore core_;
};

/// Tracked-memory governor for one execution's intermediate state. Every
/// pipeline breaker charges the bytes it buffers and releases them when
/// the buffer is handed downstream, spilled, or destroyed. The governor
/// never fails a charge — `ShouldSpill()` tells spill-capable consumers
/// when their next buffer-full would exceed the budget, and non-spillable
/// consumers simply keep charging (the peak stays observable either way).
/// Thread-safe: parallel morsels may charge concurrently.
class MemoryBudget {
 public:
  explicit MemoryBudget(int64_t max_bytes) : max_bytes_(max_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  void Charge(int64_t bytes) {
    if (bytes <= 0) return;
    const int64_t now =
        used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
  }

  void Release(int64_t bytes) {
    if (bytes > 0) used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// True when a budget is set and tracked usage already exceeds it — the
  /// signal for a spill-capable breaker to move its buffered state to
  /// disk before accepting more input.
  bool ShouldSpill() const {
    return max_bytes_ > 0 &&
           used_.load(std::memory_order_relaxed) > max_bytes_;
  }

  bool limited() const { return max_bytes_ > 0; }
  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  int64_t max_bytes() const { return max_bytes_; }

 private:
  const int64_t max_bytes_;
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
};

/// RAII charge against a MemoryBudget — releases what is still charged on
/// destruction. Movable so buffers can hand their accounting downstream.
class MemoryCharge {
 public:
  MemoryCharge() = default;
  explicit MemoryCharge(MemoryBudget* budget) : budget_(budget) {}
  MemoryCharge(MemoryCharge&& other) noexcept
      : budget_(other.budget_), bytes_(other.bytes_) {
    other.budget_ = nullptr;
    other.bytes_ = 0;
  }
  MemoryCharge& operator=(MemoryCharge&& other) noexcept {
    if (this != &other) {
      Reset();
      budget_ = other.budget_;
      bytes_ = other.bytes_;
      other.budget_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  MemoryCharge(const MemoryCharge&) = delete;
  MemoryCharge& operator=(const MemoryCharge&) = delete;
  ~MemoryCharge() { Reset(); }

  void Add(int64_t bytes) {
    if (budget_) budget_->Charge(bytes);
    bytes_ += bytes;
  }
  /// Re-measures: adjusts the outstanding charge to `bytes` total.
  void Set(int64_t bytes) {
    if (bytes >= bytes_) {
      Add(bytes - bytes_);
      return;
    }
    if (budget_) budget_->Release(bytes_ - bytes);
    bytes_ = bytes;
  }
  void Reset() {
    if (budget_) budget_->Release(bytes_);
    bytes_ = 0;
  }

  int64_t bytes() const { return bytes_; }

 private:
  MemoryBudget* budget_ = nullptr;  ///< not owned; outlives the charge
  int64_t bytes_ = 0;
};

}  // namespace xqjg::engine

#endif  // XQJG_ENGINE_EXEC_OPTIONS_H_

#include "src/api/cursor.h"

#include <chrono>
#include <utility>

#include "src/engine/columnar/columnar_exec.h"
#include "src/native/xscan.h"
#include "src/xml/serializer.h"

namespace xqjg::api {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Accrues wall time into an accumulator on every exit path — a fetch
/// that times out did real work and must still show up in fetch_seconds.
class SecondsGuard {
 public:
  explicit SecondsGuard(double* acc)
      : acc_(acc), start_(std::chrono::steady_clock::now()) {}
  ~SecondsGuard() { *acc_ += SecondsSince(start_); }
  SecondsGuard(const SecondsGuard&) = delete;
  SecondsGuard& operator=(const SecondsGuard&) = delete;

 private:
  double* acc_;
  std::chrono::steady_clock::time_point start_;
};

/// FetchAll drains in bounded bites so a pipelined stream never has to
/// hand over more than this many pre ranks at once.
constexpr size_t kFetchAllBatch = 4096;

}  // namespace

engine::ExecOptions ResultCursor::RelationalOptions() {
  engine::ExecOptions exec_options;
  exec_options.limits = options_.limits;
  exec_options.threads = options_.threads;
  if (!params_.empty()) exec_options.params = &params_;
  exec_options.stats = &stats_.engine;
  return exec_options;
}

Status ResultCursor::EnsureExecuted() {
  if (executed_) return Status::OK();
  const auto started = std::chrono::steady_clock::now();
  const PreparedQuery& pq = *prepared_;
  const CatalogSnapshot& cat = catalog();
  switch (pq.options.mode) {
    case Mode::kNativeWhole:
    case Mode::kNativeSegmented: {
      const native::NativeEngine* engine =
          pq.options.mode == Mode::kNativeWhole ? cat.whole_engine.get()
                                                : cat.segmented_engine.get();
      // Execute() verified the engine exists before handing out a cursor.
      // The native engine serializes while evaluating; row budgets do not
      // apply (it materializes no relational intermediates).
      //
      // The interpreter evaluates literals directly — it has no marker
      // substitution point — so parameterized executions bind their
      // values into a literal Core tree here (unchanged subtrees shared
      // with the cached artifact). One Prepare still serves the whole
      // literal family; only this execution sees the bound tree.
      xquery::ExprPtr core = pq.core;
      if (!params_.empty()) {
        XQJG_ASSIGN_OR_RETURN(core, xquery::BindParams(core, params_));
      }
      XQJG_ASSIGN_OR_RETURN(
          native_items_, engine->Run(core, options_.limits.timeout_seconds));
      rows_total_ = native_items_.size();
      stats_.rows_total = static_cast<int64_t>(rows_total_);
      break;
    }
    case Mode::kStacked: {
      XQJG_ASSIGN_OR_RETURN(
          stream_, engine::columnar::OpenSequenceStreamColumnar(
                       pq.stacked, *cat.doc_table(), RelationalOptions()));
      break;
    }
    case Mode::kJoinGraph: {
      if (pq.has_plan) {
        // relational_db() returns the instance the plan was compiled
        // over (Prepare built it) — pq.plan's index pointers live in it.
        XQJG_ASSIGN_OR_RETURN(
            stream_, engine::columnar::OpenSequenceStreamColumnar(
                         pq.lowered, *cat.relational_db(),
                         RelationalOptions()));
      } else {
        // Residual blocking operators: execute the isolated DAG directly.
        XQJG_ASSIGN_OR_RETURN(
            stream_, engine::columnar::OpenSequenceStreamColumnar(
                         pq.isolated, *cat.doc_table(), RelationalOptions()));
      }
      break;
    }
  }
  if (stream_) stats_.rows_total = stream_->rows_total();
  stats_.execute_seconds = SecondsSince(started);
  executed_ = true;
  return Status::OK();
}

Status ResultCursor::PullPending(size_t want) {
  if (stream_done_ || pending_.size() >= want) return Status::OK();
  const size_t before = pending_.size();
  const size_t need = want - before;
  XQJG_RETURN_NOT_OK(stream_->Next(need, &pending_));
  if (pending_.size() - before < need) {
    // Short pull = exhausted (SequenceStream contract).
    stream_done_ = true;
  }
  return Status::OK();
}

Result<std::vector<std::string>> ResultCursor::FetchNext(size_t max_items) {
  if (max_items == 0) {
    return Status::InvalidArgument(
        "FetchNext(0): an empty batch signals exhaustion, ask for >= 1");
  }
  XQJG_RETURN_NOT_OK(EnsureExecuted());
  // Constructed after EnsureExecuted so execution time is never counted
  // twice; accrues on the error paths too (a timed-out fetch did work).
  SecondsGuard fetch_time(&stats_.fetch_seconds);
  std::vector<std::string> batch;
  if (!stream_) {
    // Native lanes: already serialized by the engine; handing out is
    // trivial work, no serialization budget needed.
    const size_t end = std::min(rows_total_, next_ + max_items);
    batch.reserve(end - next_);
    for (size_t i = next_; i < end; ++i) {
      batch.push_back(std::move(native_items_[i]));
    }
    next_ = end;
    stats_.rows_fetched += static_cast<int64_t>(batch.size());
    return batch;
  }
  XQJG_RETURN_NOT_OK(PullPending(max_items));
  // Serialization works under the same wall-clock budget, restarted per
  // fetch: a bounded fetch does bounded work.
  engine::BudgetClock clock(options_.limits);
  // Resolved once per fetch: doc_table() synchronizes on the snapshot's
  // lazy-build slot, which has no place in the per-item loop.
  const std::shared_ptr<const xml::DocTable> doc = catalog().doc_table();
  const size_t count = std::min(max_items, pending_.size());
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // A timed-out fetch leaves pending_ untouched: the caller may retry
    // and no item is skipped (serialization is repeatable).
    XQJG_RETURN_NOT_OK(clock.Tick());
    batch.push_back(xml::SerializeSubtree(*doc, pending_[i]));
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<ptrdiff_t>(count));
  delivered_ += static_cast<int64_t>(count);
  stats_.rows_fetched += static_cast<int64_t>(count);
  return batch;
}

Result<std::vector<std::string>> ResultCursor::FetchAll() {
  XQJG_RETURN_NOT_OK(EnsureExecuted());
  std::vector<std::string> all;
  while (!exhausted()) {
    XQJG_ASSIGN_OR_RETURN(std::vector<std::string> batch,
                          FetchNext(kFetchAllBatch));
    if (batch.empty()) break;  // streaming lane learned the end just now
    if (all.empty()) {
      all = std::move(batch);
    } else {
      for (auto& item : batch) all.push_back(std::move(item));
    }
  }
  return all;
}

int64_t ResultCursor::retained_memory_bytes() const {
  if (stream_) {
    return stream_->retained_bytes() +
           static_cast<int64_t>(pending_.capacity() * sizeof(int64_t));
  }
  int64_t bytes = 0;
  for (size_t i = next_; i < native_items_.size(); ++i) {
    bytes += static_cast<int64_t>(native_items_[i].size());
  }
  return bytes;
}

}  // namespace xqjg::api

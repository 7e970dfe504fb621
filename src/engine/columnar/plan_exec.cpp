#include "src/engine/columnar/plan_exec.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "src/engine/algebra_exec.h"
#include "src/engine/btree.h"
#include "src/engine/parallel/worker_pool.h"
#include "src/engine/exec_stream.h"
#include "src/engine/qual_eval.h"
#include "src/engine/spill.h"

namespace xqjg::engine::columnar {

using algebra::CmpOp;
using opt::JoinGraph;
using opt::QualComparison;
using opt::QualTerm;

namespace {

// ---------------------------------------------------------------------------
// Alias-column tuple store: one contiguous pre-rank column per bound doc
// alias instead of one heap-allocated tuple per row. Qualifiers are
// compiled once per plan node (engine::BoundQualCmp — typed-array and
// dictionary-code fast paths over the columnar doc relation) and
// evaluated through the row views below.

struct AliasBatch {
  size_t rows = 0;
  std::vector<uint8_t> bound;              ///< per alias
  std::vector<std::vector<int64_t>> cols;  ///< per alias; filled iff bound

  explicit AliasBatch(int num_aliases = 0)
      : bound(static_cast<size_t>(num_aliases), 0),
        cols(static_cast<size_t>(num_aliases)) {}

  /// Bit mask of bound aliases (the compile-time bound set of its rows).
  uint32_t AliasMask() const {
    uint32_t mask = 0;
    for (size_t a = 0; a < bound.size(); ++a) {
      if (bound[a]) mask |= 1u << a;
    }
    return mask;
  }
};

/// Abstract row view: pre rank of `alias` in the current row, -1 when the
/// alias is unbound. Three concrete contexts: a batch row, a scan probe
/// (outer row + the scanned alias candidate), and a join candidate pair.
struct BatchRow {
  const AliasBatch* batch;
  size_t row;

  int64_t operator()(int alias) const {
    const auto a = static_cast<size_t>(alias);
    return batch->bound[a] ? batch->cols[a][row] : -1;
  }
};

struct ScanRow {
  const AliasBatch* outer;  ///< nullptr for leaf scans
  size_t orow;
  int alias;
  int64_t pre;

  int64_t operator()(int a) const {
    if (a == alias) return pre;
    if (outer && outer->bound[static_cast<size_t>(a)]) {
      return outer->cols[static_cast<size_t>(a)][orow];
    }
    return -1;
  }
};

struct PairRow {
  const AliasBatch* left;
  size_t lrow;
  const AliasBatch* right;
  size_t rrow;

  int64_t operator()(int a) const {
    const auto idx = static_cast<size_t>(a);
    // Left binding wins.
    if (left->bound[idx]) return left->cols[idx][lrow];
    if (right->bound[idx]) return right->cols[idx][rrow];
    return -1;
  }
};

template <typename Row>
bool AllPass(const std::vector<BoundQualCmp>& cmps, const Row& row) {
  for (const BoundQualCmp& c : cmps) {
    if (!c.Test(row)) return false;
  }
  return true;
}

std::vector<uint32_t> IdentityPerm(size_t n) {
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  return perm;
}

std::vector<int64_t> GatherInts(const std::vector<int64_t>& src,
                                const std::vector<uint32_t>& idx) {
  std::vector<int64_t> out;
  out.reserve(idx.size());
  for (uint32_t i : idx) out.push_back(src[i]);
  return out;
}

/// Row indices travel as uint32; a batch beyond 2^32 rows must fail loudly
/// instead of letting the casts wrap.
constexpr size_t kMaxBatchRows = std::numeric_limits<uint32_t>::max();

/// Morsel geometry for the parallel paths (threads > 1 only): below the
/// cutoff the fan-out costs more in scheduling than it saves; above it,
/// fixed-size morsels give the pool enough pieces to balance skew while
/// per-morsel outputs stay cache-resident until the ordered concat.
constexpr size_t kParallelRowCutoff = 2048;
constexpr size_t kMorselRows = 1024;
/// Outer rows of an index-probe loop: each row is a whole B-tree probe,
/// so far fewer rows amortize a morsel.
constexpr size_t kParallelProbeCutoff = 256;
constexpr size_t kMorselProbeRows = 128;

inline size_t MorselCount(size_t n, size_t morsel) {
  return (n + morsel - 1) / morsel;
}

/// Concatenates per-morsel slices in morsel-index order — the step that
/// makes every parallel path emit exactly the serial order.
template <typename T>
void ConcatParts(const std::vector<std::vector<T>>& parts,
                 std::vector<T>* out) {
  size_t total = out->size();
  for (const auto& part : parts) total += part.size();
  out->reserve(total);
  for (const auto& part : parts) {
    out->insert(out->end(), part.begin(), part.end());
  }
}

Status CheckBatchSize(const AliasBatch& batch) {
  if (batch.rows > kMaxBatchRows) {
    return Status::Internal("join input exceeds batch row limit");
  }
  return Status::OK();
}


// ---------------------------------------------------------------------------

/// Tracked bytes of one alias batch: the bound pre-rank columns (the
/// bound bitmap is noise). Stable across the batch's charged lifetime —
/// batches are never resized between ChargeBatch and ReleaseBatch.
int64_t AliasBatchBytes(const AliasBatch& batch) {
  int64_t bytes = static_cast<int64_t>(batch.bound.size());
  for (const auto& col : batch.cols) {
    bytes += static_cast<int64_t>(col.size() * sizeof(int64_t));
  }
  return bytes;
}

/// Shared state of one plan execution: the DNF clock and the memory
/// governor. Heap-hoistable so a streaming tail (OpenPlanStreamColumnar)
/// can keep ticking and accounting after the executor's stack frame is
/// gone.
struct PlanExecCtx {
  explicit PlanExecCtx(const ExecLimits& limits)
      : clock(limits), budget(limits.max_memory_bytes) {}

  void SyncPeak() {
    if (stats != nullptr) {
      stats->peak_memory_bytes =
          std::max(stats->peak_memory_bytes, budget.peak());
    }
  }

  BudgetClock clock;
  MemoryBudget budget;
  ExecStats* stats = nullptr;
};

// ---------------------------------------------------------------------------

class ColumnarPlanExecutor {
 public:
  ColumnarPlanExecutor(const JoinGraph& graph, const Database& db,
                       const PlannerOptions& options, ExecStats* stats,
                       PlanExecCtx* ctx)
      : graph_(graph), db_(db), params_(options.params), stats_(stats),
        threads_(options.threads), ctx_(ctx) {}

  Result<AliasBatch> Run(const PhysNode* node) {
    XQJG_RETURN_NOT_OK(ctx_->clock.CheckDeadline());
    switch (node->kind) {
      case PhysKind::kTbScan:
      case PhysKind::kIxScan: {
        AliasBatch out(graph_.num_aliases);
        std::vector<int64_t> pres;
        const CompiledScan scan = CompileScan(*node, db_, 0, params_);
        if (node->kind == PhysKind::kTbScan && threads_ > 1 &&
            static_cast<size_t>(db_.row_count()) >= kParallelRowCutoff) {
          XQJG_RETURN_NOT_OK(LeafTbScanParallel(node, scan, &pres));
        } else {
          XQJG_RETURN_NOT_OK(ProbeScan(node, scan, nullptr, 0, nullptr,
                                       &pres, &ctx_->clock));
        }
        out.rows = pres.size();
        out.bound[static_cast<size_t>(node->alias)] = 1;
        out.cols[static_cast<size_t>(node->alias)] = std::move(pres);
        ChargeBatch(out);
        return out;
      }
      case PhysKind::kNlJoin:
        return RunNlJoin(node);
      case PhysKind::kHsJoin:
        return RunHsJoin(node);
    }
    return Status::Internal("unknown physical operator");
  }

 private:
  /// Every AliasBatch a Run() returns is charged against the governor;
  /// the consumer releases it once its rows have been merged onward.
  void ChargeBatch(const AliasBatch& batch) {
    ctx_->budget.Charge(AliasBatchBytes(batch));
  }
  void ReleaseBatch(AliasBatch* batch) {
    ctx_->budget.Release(AliasBatchBytes(*batch));
    *batch = AliasBatch();  // actually free — the charge says we did
  }

  Result<AliasBatch> RunNlJoin(const PhysNode* node) {
    XQJG_ASSIGN_OR_RETURN(AliasBatch outer, Run(node->left.get()));
    XQJG_RETURN_NOT_OK(CheckBatchSize(outer));
    if (node->right->kind == PhysKind::kIxScan ||
        node->right->kind == PhysKind::kTbScan) {
      const int alias = node->right->alias;
      const CompiledScan scan =
          CompileScan(*node->right, db_, outer.AliasMask(), params_);
      std::vector<uint32_t> orows;
      std::vector<int64_t> pres;
      if (threads_ > 1 && outer.rows >= kParallelProbeCutoff) {
        // Morsels over the outer rows: each morsel probes its range into
        // private (orow, pre) slices — the scan node and its B-tree are
        // read-only — concatenated in morsel order.
        const size_t morsels = MorselCount(outer.rows, kMorselProbeRows);
        std::vector<std::vector<uint32_t>> oparts(morsels);
        std::vector<std::vector<int64_t>> pparts(morsels);
        RegionBudget budget(ctx_->clock);
        parallel::WorkerPool::Instance().ParallelFor(
            threads_, morsels, [&](size_t m, int) {
              BudgetClock wclock = budget.Worker();
              auto run = [&]() -> Status {
                const size_t end =
                    std::min(outer.rows, (m + 1) * kMorselProbeRows);
                for (size_t o = m * kMorselProbeRows; o < end; ++o) {
                  XQJG_RETURN_NOT_OK(ProbeScan(node->right.get(), scan,
                                               &outer, o, &oparts[m],
                                               &pparts[m], &wclock));
                  XQJG_RETURN_NOT_OK(wclock.TickRows(
                      static_cast<int64_t>(pparts[m].size())));
                }
                return wclock.FinishLocalRows(
                    static_cast<int64_t>(pparts[m].size()));
              };
              Status st = run();
              if (!st.ok()) budget.Abort(st);
            });
        XQJG_RETURN_NOT_OK(budget.status());
        ConcatParts(oparts, &orows);
        ConcatParts(pparts, &pres);
      } else {
        for (size_t o = 0; o < outer.rows; ++o) {
          XQJG_RETURN_NOT_OK(ProbeScan(node->right.get(), scan, &outer, o,
                                       &orows, &pres, &ctx_->clock));
          XQJG_RETURN_NOT_OK(
              ctx_->clock.TickRows(static_cast<int64_t>(pres.size())));
        }
      }
      AliasBatch merged = MergeScanResult(outer, alias, orows, pres);
      ReleaseBatch(&outer);
      // Edge predicates not already applied inside the probe.
      XQJG_RETURN_NOT_OK(FilterBatch(node->preds, &merged));
      ChargeBatch(merged);
      if (stats_) {
        stats_->tuples_materialized += static_cast<int64_t>(merged.rows);
      }
      return merged;
    }
    XQJG_ASSIGN_OR_RETURN(AliasBatch inner, Run(node->right.get()));
    XQJG_RETURN_NOT_OK(CheckBatchSize(inner));
    const std::vector<BoundQualCmp> cmps = CompileQuals(
        node->preds, db_, outer.AliasMask() | inner.AliasMask(), params_);
    std::vector<uint32_t> lidx, ridx;
    XQJG_RETURN_NOT_OK(NestedPairs(
        outer.rows, inner.rows,
        [&](size_t l, size_t r) {
          return AllPass(cmps, PairRow{&outer, l, &inner, r});
        },
        &lidx, &ridx));
    AliasBatch merged = MergePair(outer, inner, lidx, ridx);
    ReleaseBatch(&outer);
    ReleaseBatch(&inner);
    ChargeBatch(merged);
    if (stats_) {
      stats_->tuples_materialized += static_cast<int64_t>(merged.rows);
    }
    return merged;
  }

  /// l-major × r-minor candidate sweep shared by both nested-loop join
  /// paths; `pass(l, r)` decides emission. Parallel over l-morsels when
  /// the pair space is worth fanning out; morsel-order concat reproduces
  /// the serial emission order.
  template <typename PassFn>
  Status NestedPairs(size_t lrows, size_t rrows, const PassFn& pass,
                     std::vector<uint32_t>* lidx,
                     std::vector<uint32_t>* ridx) {
    if (threads_ > 1 && lrows >= 2 &&
        lrows * rrows >= kParallelRowCutoff) {
      const size_t morsel =
          std::max<size_t>(1, kParallelRowCutoff / std::max<size_t>(rrows, 1));
      const size_t morsels = MorselCount(lrows, morsel);
      std::vector<std::vector<uint32_t>> lparts(morsels), rparts(morsels);
      RegionBudget budget(ctx_->clock);
      parallel::WorkerPool::Instance().ParallelFor(
          threads_, morsels, [&](size_t m, int) {
            BudgetClock wclock = budget.Worker();
            std::vector<uint32_t>& ld = lparts[m];
            std::vector<uint32_t>& rd = rparts[m];
            auto run = [&]() -> Status {
              const size_t end = std::min(lrows, (m + 1) * morsel);
              for (size_t l = m * morsel; l < end; ++l) {
                for (size_t r = 0; r < rrows; ++r) {
                  XQJG_RETURN_NOT_OK(
                      wclock.TickRows(static_cast<int64_t>(ld.size())));
                  if (pass(l, r)) {
                    ld.push_back(static_cast<uint32_t>(l));
                    rd.push_back(static_cast<uint32_t>(r));
                  }
                }
              }
              return wclock.FinishLocalRows(
                  static_cast<int64_t>(ld.size()));
            };
            Status st = run();
            if (!st.ok()) budget.Abort(st);
          });
      XQJG_RETURN_NOT_OK(budget.status());
      ConcatParts(lparts, lidx);
      ConcatParts(rparts, ridx);
      return Status::OK();
    }
    for (size_t l = 0; l < lrows; ++l) {
      for (size_t r = 0; r < rrows; ++r) {
        XQJG_RETURN_NOT_OK(
            ctx_->clock.TickRows(static_cast<int64_t>(lidx->size())));
        if (pass(l, r)) {
          lidx->push_back(static_cast<uint32_t>(l));
          ridx->push_back(static_cast<uint32_t>(r));
        }
      }
    }
    return Status::OK();
  }

  /// Leaf full-table scan, morselized over contiguous pre ranges.
  Status LeafTbScanParallel(const PhysNode* node, const CompiledScan& scan,
                            std::vector<int64_t>* pres) {
    const auto nrows = static_cast<size_t>(db_.row_count());
    const size_t morsels = MorselCount(nrows, kMorselRows);
    std::vector<std::vector<int64_t>> parts(morsels);
    RegionBudget budget(ctx_->clock);
    parallel::WorkerPool::Instance().ParallelFor(
        threads_, morsels, [&](size_t m, int) {
          BudgetClock wclock = budget.Worker();
          std::vector<int64_t>& part = parts[m];
          auto run = [&]() -> Status {
            const auto end = static_cast<int64_t>(
                std::min(nrows, (m + 1) * kMorselRows));
            for (auto pre = static_cast<int64_t>(m * kMorselRows);
                 pre < end; ++pre) {
              if (AllPass(scan.row_preds,
                          ScanRow{nullptr, 0, node->alias, pre})) {
                part.push_back(pre);
              }
              XQJG_RETURN_NOT_OK(
                  wclock.TickRows(static_cast<int64_t>(part.size())));
            }
            return wclock.FinishLocalRows(
                static_cast<int64_t>(part.size()));
          };
          Status st = run();
          if (!st.ok()) budget.Abort(st);
        });
    XQJG_RETURN_NOT_OK(budget.status());
    ConcatParts(parts, pres);
    return Status::OK();
  }

  Result<AliasBatch> RunHsJoin(const PhysNode* node) {
    XQJG_ASSIGN_OR_RETURN(AliasBatch left, Run(node->left.get()));
    XQJG_ASSIGN_OR_RETURN(AliasBatch right, Run(node->right.get()));
    XQJG_RETURN_NOT_OK(CheckBatchSize(left));
    XQJG_RETURN_NOT_OK(CheckBatchSize(right));
    const std::vector<BoundQualCmp> cmps = CompileQuals(
        node->preds, db_, left.AliasMask() | right.AliasMask(), params_);
    // Hash on the first equality predicate; others become residual.
    const QualComparison* hash_pred = nullptr;
    for (const auto& p : node->preds) {
      if (p.op == CmpOp::kEq) {
        hash_pred = &p;
        break;
      }
    }
    std::vector<uint32_t> lidx, ridx;
    auto pair_passes = [&](size_t l, size_t r) {
      return AllPass(cmps, PairRow{&left, l, &right, r});
    };
    if (!hash_pred) {
      XQJG_RETURN_NOT_OK(
          NestedPairs(left.rows, right.rows, pair_passes, &lidx, &ridx));
      AliasBatch merged = MergePair(left, right, lidx, ridx);
      ReleaseBatch(&left);
      ReleaseBatch(&right);
      ChargeBatch(merged);
      return merged;
    }
    // Determine which side provides which term (same rule as the row
    // executor: a term is probe-side if its aliases are bound there).
    const uint32_t left_mask = left.AliasMask();
    auto on_left = [&](const QualTerm& t) {
      for (int a : {t.alias, t.alias2}) {
        if (a >= 0 && !(left_mask & (1u << a))) return false;
      }
      return true;
    };
    const bool lhs_left = on_left(hash_pred->lhs);
    const BoundQualTerm lterm(
        ResolveParams(lhs_left ? hash_pred->lhs : hash_pred->rhs, params_),
        db_);
    const BoundQualTerm rterm(
        ResolveParams(lhs_left ? hash_pred->rhs : hash_pred->lhs, params_),
        db_);
    if (ctx_->budget.ShouldSpill() && right.rows >= kMinSpillRows) {
      // The governor says the resident state is already over budget and
      // the build side is large enough to be worth moving to disk.
      return GraceHashJoin(std::move(left), std::move(right), cmps, lterm,
                           rterm);
    }
    std::unordered_map<size_t, std::vector<uint32_t>> buckets;
    if (threads_ > 1 && right.rows >= kParallelRowCutoff) {
      // Partitioned parallel build: contiguous ascending row ranges into
      // private tables, merged in partition order — every bucket keeps
      // its rows ascending, exactly the serial insertion order, so the
      // probe emits identically.
      const size_t rn = right.rows;
      const size_t morsels = MorselCount(rn, kMorselRows);
      std::vector<std::unordered_map<size_t, std::vector<uint32_t>>> built(
          morsels);
      RegionBudget budget(ctx_->clock);
      parallel::WorkerPool::Instance().ParallelFor(
          threads_, morsels, [&](size_t m, int) {
            BudgetClock wclock = budget.Worker();
            auto& local = built[m];
            const size_t end = std::min(rn, (m + 1) * kMorselRows);
            for (size_t j = m * kMorselRows; j < end; ++j) {
              Status st = wclock.Tick();
              if (!st.ok()) {
                budget.Abort(st);
                return;
              }
              Value v = rterm.Eval(BatchRow{&right, j});
              if (v.is_null()) continue;
              local[v.Hash()].push_back(static_cast<uint32_t>(j));
            }
          });
      XQJG_RETURN_NOT_OK(budget.status());
      buckets.reserve(rn * 2);
      for (auto& local : built) {
        for (auto& [h, rows] : local) {
          auto& dst = buckets[h];
          dst.insert(dst.end(), rows.begin(), rows.end());
        }
      }
    } else {
      for (size_t j = 0; j < right.rows; ++j) {
        XQJG_RETURN_NOT_OK(ctx_->clock.Tick());
        // NULL keys never join (Value::Compare: NULL is incomparable).
        Value v = rterm.Eval(BatchRow{&right, j});
        if (v.is_null()) continue;
        buckets[v.Hash()].push_back(static_cast<uint32_t>(j));
      }
    }
    if (threads_ > 1 && left.rows >= kParallelRowCutoff) {
      // Shared read-only probe over morsels of the left rows.
      const size_t ln = left.rows;
      const size_t morsels = MorselCount(ln, kMorselRows);
      std::vector<std::vector<uint32_t>> lparts(morsels), rparts(morsels);
      RegionBudget budget(ctx_->clock);
      parallel::WorkerPool::Instance().ParallelFor(
          threads_, morsels, [&](size_t m, int) {
            BudgetClock wclock = budget.Worker();
            std::vector<uint32_t>& ld = lparts[m];
            std::vector<uint32_t>& rd = rparts[m];
            auto run = [&]() -> Status {
              const size_t end = std::min(ln, (m + 1) * kMorselRows);
              for (size_t l = m * kMorselRows; l < end; ++l) {
                XQJG_RETURN_NOT_OK(wclock.Tick());
                Value v = lterm.Eval(BatchRow{&left, l});
                if (v.is_null()) continue;
                auto it = buckets.find(v.Hash());
                if (it == buckets.end()) continue;
                for (uint32_t j : it->second) {
                  XQJG_RETURN_NOT_OK(
                      wclock.TickRows(static_cast<int64_t>(ld.size())));
                  if (pair_passes(l, j)) {
                    ld.push_back(static_cast<uint32_t>(l));
                    rd.push_back(j);
                  }
                }
              }
              return wclock.FinishLocalRows(
                  static_cast<int64_t>(ld.size()));
            };
            Status st = run();
            if (!st.ok()) budget.Abort(st);
          });
      XQJG_RETURN_NOT_OK(budget.status());
      ConcatParts(lparts, &lidx);
      ConcatParts(rparts, &ridx);
    } else {
      for (size_t l = 0; l < left.rows; ++l) {
        XQJG_RETURN_NOT_OK(ctx_->clock.Tick());
        Value v = lterm.Eval(BatchRow{&left, l});
        if (v.is_null()) continue;
        auto it = buckets.find(v.Hash());
        if (it == buckets.end()) continue;
        for (uint32_t j : it->second) {
          XQJG_RETURN_NOT_OK(
              ctx_->clock.TickRows(static_cast<int64_t>(lidx.size())));
          if (pair_passes(l, j)) {
            lidx.push_back(static_cast<uint32_t>(l));
            ridx.push_back(j);
          }
        }
      }
    }
    AliasBatch merged = MergePair(left, right, lidx, ridx);
    ReleaseBatch(&left);
    ReleaseBatch(&right);
    ChargeBatch(merged);
    if (stats_) {
      stats_->tuples_materialized += static_cast<int64_t>(merged.rows);
    }
    return merged;
  }

  /// Grace fallback for the hash join: the build side's rows move to
  /// hash-partitioned spill files (raw int64 frames: original build row
  /// index, key hash, then one pre rank per build-bound alias) and RAM
  /// holds one rebuilt partition at a time while the resident probe side
  /// runs against it. Emitted (probe row, build row) pairs are re-sorted
  /// by (probe row, original build row) — exactly the serial probe's
  /// emission order (outer rows ascending, bucket candidates in build
  /// arrival order, which is ascending) — so the merged output is
  /// bit-identical to the in-memory join at any budget.
  Result<AliasBatch> GraceHashJoin(AliasBatch left, AliasBatch right,
                                   const std::vector<BoundQualCmp>& cmps,
                                   const BoundQualTerm& lterm,
                                   const BoundQualTerm& rterm) {
    // Aliases whose columns the build side must carry through disk.
    std::vector<size_t> rbound;
    for (size_t a = 0; a < right.bound.size(); ++a) {
      if (right.bound[a]) rbound.push_back(a);
    }
    const size_t rb = rbound.size();
    const size_t arity = 2 + rb;
    std::vector<SpillFile> parts(kSpillPartitions);
    std::vector<int64_t> frame(arity);
    for (size_t j = 0; j < right.rows; ++j) {
      XQJG_RETURN_NOT_OK(ctx_->clock.Tick());
      const Value v = rterm.Eval(BatchRow{&right, j});
      if (v.is_null()) continue;  // NULL keys never join
      const size_t h = v.Hash();
      frame[0] = static_cast<int64_t>(j);
      frame[1] = static_cast<int64_t>(h);
      for (size_t c = 0; c < rb; ++c) {
        frame[2 + c] = right.cols[rbound[c]][j];
      }
      XQJG_RETURN_NOT_OK(
          SpillAppendInts(&parts[SpillPartition(h)], frame.data(), arity));
    }
    if (stats_ != nullptr) {
      for (const SpillFile& f : parts) {
        stats_->spill_bytes += f.bytes_written();
      }
      stats_->spill_events += 1;
    }
    ReleaseBatch(&right);  // the point: the build side leaves RAM

    // Probe-side hashes and per-partition probe lists (the probe side
    // stays resident; partitions nobody probes are skipped unread).
    std::vector<std::vector<uint32_t>> plists(kSpillPartitions);
    std::vector<size_t> lhash(left.rows, 0);
    for (size_t l = 0; l < left.rows; ++l) {
      XQJG_RETURN_NOT_OK(ctx_->clock.Tick());
      const Value v = lterm.Eval(BatchRow{&left, l});
      if (v.is_null()) continue;
      lhash[l] = v.Hash();
      plists[SpillPartition(lhash[l])].push_back(static_cast<uint32_t>(l));
    }

    std::vector<uint32_t> pl, pj;  // emitted (probe, build) row pairs
    std::vector<std::vector<int64_t>> rvals(rb);  // build values per pair
    for (size_t p = 0; p < kSpillPartitions; ++p) {
      if (plists[p].empty() || !parts[p].open()) {
        parts[p].Close();
        continue;
      }
      XQJG_RETURN_NOT_OK(parts[p].Rewind());
      // Rebuild this partition's build rows; bucket insertion order is
      // ascending original build row, exactly the serial insertion order.
      AliasBatch rightp(graph_.num_aliases);
      for (size_t c = 0; c < rb; ++c) rightp.bound[rbound[c]] = 1;
      std::vector<uint32_t> jorig;
      std::unordered_map<size_t, std::vector<uint32_t>> buckets;
      for (;;) {
        XQJG_ASSIGN_OR_RETURN(
            const bool more, SpillReadInts(&parts[p], frame.data(), arity));
        if (!more) break;
        XQJG_RETURN_NOT_OK(ctx_->clock.Tick());
        buckets[static_cast<size_t>(frame[1])].push_back(
            static_cast<uint32_t>(jorig.size()));
        jorig.push_back(static_cast<uint32_t>(frame[0]));
        for (size_t c = 0; c < rb; ++c) {
          rightp.cols[rbound[c]].push_back(frame[2 + c]);
        }
      }
      rightp.rows = jorig.size();
      parts[p].Close();
      MemoryCharge part_charge(&ctx_->budget);
      part_charge.Set(AliasBatchBytes(rightp) +
                      static_cast<int64_t>(jorig.size() * sizeof(uint32_t)));
      for (uint32_t l : plists[p]) {
        auto it = buckets.find(lhash[l]);
        if (it == buckets.end()) continue;
        for (uint32_t jl : it->second) {
          XQJG_RETURN_NOT_OK(
              ctx_->clock.TickRows(static_cast<int64_t>(pl.size())));
          if (AllPass(cmps, PairRow{&left, l, &rightp, jl})) {
            pl.push_back(l);
            pj.push_back(jorig[jl]);
            for (size_t c = 0; c < rb; ++c) {
              rvals[c].push_back(rightp.cols[rbound[c]][jl]);
            }
          }
        }
      }
    }
    if (pl.size() > kMaxBatchRows) {
      return Status::Internal("join result exceeds batch row limit");
    }

    // Restore the serial emission order. Pairs are unique, so the plain
    // sort is deterministic.
    std::vector<uint32_t> perm = IdentityPerm(pl.size());
    try {
      std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
        ctx_->clock.TickThrow();
        if (pl[a] != pl[b]) return pl[a] < pl[b];
        return pj[a] < pj[b];
      });
    } catch (const BudgetExhausted&) {
      return Status::Timeout("execution exceeded wall-clock budget (DNF)");
    }
    AliasBatch out(graph_.num_aliases);
    out.rows = perm.size();
    std::vector<uint32_t> lsorted;
    lsorted.reserve(perm.size());
    for (uint32_t i : perm) lsorted.push_back(pl[i]);
    for (int a = 0; a < graph_.num_aliases; ++a) {
      const auto idx = static_cast<size_t>(a);
      if (left.bound[idx]) {
        out.bound[idx] = 1;
        out.cols[idx] = ParallelGatherInts(left.cols[idx], lsorted);
      }
    }
    for (size_t c = 0; c < rb; ++c) {
      const size_t idx = rbound[c];
      if (out.bound[idx]) continue;  // left binding wins (MergeTuples)
      out.bound[idx] = 1;
      auto& col = out.cols[idx];
      col.reserve(perm.size());
      for (uint32_t i : perm) col.push_back(rvals[c][i]);
    }
    ReleaseBatch(&left);
    ChargeBatch(out);
    if (stats_ != nullptr) {
      stats_->tuples_materialized += static_cast<int64_t>(out.rows);
    }
    return out;
  }

  AliasBatch MergeScanResult(const AliasBatch& outer, int alias,
                             const std::vector<uint32_t>& orows,
                             std::vector<int64_t> pres) {
    AliasBatch out(graph_.num_aliases);
    out.rows = pres.size();
    for (int a = 0; a < graph_.num_aliases; ++a) {
      const auto idx = static_cast<size_t>(a);
      if (!outer.bound[idx]) continue;
      out.bound[idx] = 1;
      out.cols[idx] = ParallelGatherInts(outer.cols[idx], orows);
    }
    out.bound[static_cast<size_t>(alias)] = 1;
    out.cols[static_cast<size_t>(alias)] = std::move(pres);
    return out;
  }

  AliasBatch MergePair(const AliasBatch& left, const AliasBatch& right,
                       const std::vector<uint32_t>& lidx,
                       const std::vector<uint32_t>& ridx) {
    AliasBatch out(graph_.num_aliases);
    out.rows = lidx.size();
    for (int a = 0; a < graph_.num_aliases; ++a) {
      const auto idx = static_cast<size_t>(a);
      // Left binding wins, mirroring MergeTuples.
      if (left.bound[idx]) {
        out.bound[idx] = 1;
        out.cols[idx] = ParallelGatherInts(left.cols[idx], lidx);
      } else if (right.bound[idx]) {
        out.bound[idx] = 1;
        out.cols[idx] = ParallelGatherInts(right.cols[idx], ridx);
      }
    }
    return out;
  }

  /// GatherInts, morselized into disjoint slices of the pre-sized output
  /// when the batch is worth fanning out (bitwise-identical result).
  std::vector<int64_t> ParallelGatherInts(const std::vector<int64_t>& src,
                                          const std::vector<uint32_t>& idx) {
    if (threads_ <= 1 || idx.size() < kParallelRowCutoff) {
      return GatherInts(src, idx);
    }
    std::vector<int64_t> out(idx.size());
    parallel::WorkerPool::Instance().ParallelFor(
        threads_, MorselCount(idx.size(), kMorselRows), [&](size_t m, int) {
          const size_t end = std::min(idx.size(), (m + 1) * kMorselRows);
          for (size_t r = m * kMorselRows; r < end; ++r) {
            out[r] = src[idx[r]];
          }
        });
    return out;
  }

  Status FilterBatch(const std::vector<QualComparison>& preds,
                     AliasBatch* batch) {
    if (preds.empty()) return Status::OK();
    const std::vector<BoundQualCmp> cmps =
        CompileQuals(preds, db_, batch->AliasMask(), params_);
    std::vector<uint32_t> sel;
    for (size_t r = 0; r < batch->rows; ++r) {
      XQJG_RETURN_NOT_OK(ctx_->clock.Tick());
      if (AllPass(cmps, BatchRow{batch, r})) {
        sel.push_back(static_cast<uint32_t>(r));
      }
    }
    if (sel.size() == batch->rows) return Status::OK();
    for (int a = 0; a < graph_.num_aliases; ++a) {
      const auto idx = static_cast<size_t>(a);
      if (batch->bound[idx]) {
        batch->cols[idx] = GatherInts(batch->cols[idx], sel);
      }
    }
    batch->rows = sel.size();
    return Status::OK();
  }

  /// Runs one scan (compiled once per node) with outer bindings from
  /// `outer` row `orow` (both null for leaf scans); appends matches as
  /// (outer row, pre) pairs.
  /// `clock` is the caller's budget clock — the execution clock for
  /// serial callers, a per-morsel worker clock inside parallel regions.
  Status ProbeScan(const PhysNode* node, const CompiledScan& scan,
                   const AliasBatch* outer, size_t orow,
                   std::vector<uint32_t>* out_orow,
                   std::vector<int64_t>* out_pre, BudgetClock* clock) {
    const int alias = node->alias;
    auto emit_if_match = [&](int64_t pre) {
      // Conjuncts whose other aliases are still unbound were dropped at
      // compile time (they are re-checked at the join that binds them).
      if (!AllPass(scan.row_preds, ScanRow{outer, orow, alias, pre})) {
        return;
      }
      if (out_orow) out_orow->push_back(static_cast<uint32_t>(orow));
      out_pre->push_back(pre);
    };
    if (node->kind == PhysKind::kTbScan) {
      for (int64_t pre = 0; pre < db_.row_count(); ++pre) {
        emit_if_match(pre);
        XQJG_RETURN_NOT_OK(
            clock->TickRows(static_cast<int64_t>(out_pre->size())));
      }
      return Status::OK();
    }
    // Index scan: build the probe range from the compiled probe plan
    // (probe terms reference only outer bindings by construction).
    KeyRange range;
    if (!BuildProbeRange(scan, ScanRow{outer, orow, -1, -1}, &range)) {
      return Status::OK();  // NULL probe value never matches
    }
    bool expired = false, over_rows = false;
    node->index->tree.Scan(range, [&](const Key&, int64_t pre) {
      emit_if_match(pre);
      if (clock->RowsExceeded(static_cast<int64_t>(out_pre->size())) ||
          clock->RegionAborted()) {
        over_rows = true;
        return false;  // stop the scan
      }
      if (clock->TickQuiet() && clock->Expired()) {
        expired = true;
        return false;  // stop the scan
      }
      return true;
    });
    if (over_rows) {
      return clock->TickRows(static_cast<int64_t>(out_pre->size()));
    }
    if (expired) return clock->CheckDeadline();
    return Status::OK();
  }

  const JoinGraph& graph_;
  const Database& db_;
  const std::vector<Value>* params_;  ///< Execute-time bindings, not owned
  ExecStats* stats_;
  const int threads_;  ///< morsel workers (1 = serial)
  PlanExecCtx* ctx_;   ///< clock + memory governor, not owned
};

// ---------------------------------------------------------------------------
// Plan tail: ORDER BY + DISTINCT + item projection.

/// Live state of a spilled plan tail: the external sorter plus the
/// adjacent-row dedup cursor. Outlives the executor (the sorter holds
/// only spill files, boxed rows, and pointers into PlanExecCtx).
struct TailStream {
  std::unique_ptr<ExternalValueSorter> sorter;
  /// Row indices compared for DISTINCT (the sort keys when the payload
  /// equals the sort key, the trailing payload columns otherwise).
  std::vector<int> dedup_idx;
  size_t item_idx = 0;
  bool distinct = false;
  std::vector<Value> prev;  ///< last kept row (dedup reference)
  bool have_prev = false;
};

bool TailValuesEqual(const Value& a, const Value& b) {
  return a.is_null() == b.is_null() && (a.is_null() || a == b);
}

/// Pulls sorted rows out of the tail, applying DISTINCT and the NULL-item
/// skip exactly as the serial loop does, until `max_items` items were
/// appended or the sorter ran dry. Returns true when exhausted.
Result<bool> DrainTailSome(TailStream* ts, size_t max_items,
                           std::vector<int64_t>* out) {
  size_t emitted = 0;
  std::vector<Value> row;
  // Every pulled row ticked the clock inside ExternalValueSorter::Next.
  // xqjg-lint: allow(no-budget-guard)
  while (emitted < max_items) {
    XQJG_ASSIGN_OR_RETURN(const bool more, ts->sorter->Next(&row));
    if (!more) return true;
    if (ts->distinct) {
      if (ts->have_prev) {
        bool same = true;
        for (int c : ts->dedup_idx) {
          if (!TailValuesEqual(row[static_cast<size_t>(c)],
                               ts->prev[static_cast<size_t>(c)])) {
            same = false;
            break;
          }
        }
        if (same) continue;
      }
      ts->prev = row;
      ts->have_prev = true;
    }
    const Value& item = row[ts->item_idx];
    if (item.is_null()) continue;
    out->push_back(item.AsInt());
    ++emitted;
  }
  return false;
}

/// SequenceStream over a spilled plan tail: each pull merges a few rows
/// off the sorted runs. rows_total() is unknown (-1) until the drain
/// finishes — DISTINCT and the NULL-item skip decide the cardinality row
/// by row.
class PlanSequenceStream final : public SequenceStream {
 public:
  PlanSequenceStream(std::unique_ptr<PlanExecCtx> ctx,
                     std::unique_ptr<TailStream> tail)
      : ctx_(std::move(ctx)), tail_(std::move(tail)) {}

  int64_t rows_total() const override { return done_ ? emitted_ : -1; }

  Status Next(size_t max_rows, std::vector<int64_t>* out) override {
    if (done_) return Status::OK();
    const size_t before = out->size();
    Result<bool> drained = DrainTailSome(tail_.get(), max_rows, out);
    // Count rows appended even on an error path (a mid-drain timeout):
    // the caller keeps them, so the final total must include them.
    emitted_ += static_cast<int64_t>(out->size() - before);
    if (!drained.ok()) return drained.status();
    if (drained.value()) {
      done_ = true;
      if (ctx_->stats != nullptr) ctx_->stats->rows_out = emitted_;
      tail_.reset();  // drop run cursors and the dedup row now
      ctx_->SyncPeak();
    }
    return Status::OK();
  }

  int64_t retained_bytes() const override { return ctx_->budget.used(); }

 private:
  std::unique_ptr<PlanExecCtx> ctx_;
  std::unique_ptr<TailStream> tail_;
  int64_t emitted_ = 0;
  bool done_ = false;
};

/// Runs the physical tree and its tail. Sort keys (ORDER BY terms +
/// item) are compiled once against the typed columns and evaluated
/// exactly once per tuple. In memory the tail is one stable sort over a row permutation;
/// when the governor is over budget the rows route through the external
/// sorter instead, and `*stream_out` receives the live merge state in
/// place of a materialized vector.
Result<std::vector<int64_t>> RunPlanToItems(
    const PhysicalPlan& plan, const Database& db,
    const PlannerOptions& options, ExecStats* stats, PlanExecCtx* ctx,
    std::unique_ptr<TailStream>* stream_out) {
  const JoinGraph& graph = *plan.graph;
  ColumnarPlanExecutor executor(graph, db, options, stats, ctx);
  XQJG_ASSIGN_OR_RETURN(AliasBatch tuples, executor.Run(plan.root.get()));
  if (tuples.rows > std::numeric_limits<uint32_t>::max()) {
    return Status::Internal("plan result exceeds batch row limit");
  }
  BudgetClock* clock = &ctx->clock;

  const size_t n = tuples.rows;
  // Key evaluation fans out over row morsels into disjoint slices of the
  // pre-sized column; the sort itself stays a serial merge barrier.
  auto eval_term_column = [&](const QualTerm& qt,
                              std::vector<Value>* out_col) -> Status {
    const BoundQualTerm term(qt, db);
    if (options.threads > 1 && n >= kParallelRowCutoff) {
      out_col->resize(n);
      RegionBudget budget(*clock);
      parallel::WorkerPool::Instance().ParallelFor(
          options.threads, MorselCount(n, kMorselRows),
          [&](size_t m, int) {
            BudgetClock wclock = budget.Worker();
            const size_t end = std::min(n, (m + 1) * kMorselRows);
            for (size_t r = m * kMorselRows; r < end; ++r) {
              (*out_col)[r] = term.Eval(BatchRow{&tuples, r});
              Status st = wclock.Tick();
              if (!st.ok()) {
                budget.Abort(st);
                return;
              }
            }
          });
      return budget.status();
    }
    out_col->reserve(n);
    for (size_t r = 0; r < n; ++r) {
      out_col->push_back(term.Eval(BatchRow{&tuples, r}));
      XQJG_RETURN_NOT_OK(clock->Tick());
    }
    return Status::OK();
  };
  std::vector<std::vector<Value>> keys(graph.order_by.size() + 1);
  for (size_t kcol = 0; kcol < keys.size(); ++kcol) {
    XQJG_RETURN_NOT_OK(eval_term_column(kcol < graph.order_by.size()
                                            ? graph.order_by[kcol]
                                            : graph.item,
                                        &keys[kcol]));
  }
  MemoryCharge keys_charge(&ctx->budget);
  keys_charge.Set(
      static_cast<int64_t>(keys.size() * n * sizeof(Value)));
  const bool dedup_by_key =
      graph.distinct && graph.DistinctPayloadEqualsSortKey();

  if (ctx->budget.ShouldSpill() && n >= kMinSpillRows) {
    // ---- External tail: the sort works off disk runs. Rows carry the
    // sort keys (item last, exactly the serial comparator) plus the
    // DISTINCT payload when it differs from the keys; the run merge with
    // run-index tie-break reproduces the stable in-memory sort.
    std::vector<std::vector<Value>> payload_cols;
    if (graph.distinct && !dedup_by_key) {
      payload_cols.resize(graph.select_list.size());
      for (size_t c = 0; c < graph.select_list.size(); ++c) {
        XQJG_RETURN_NOT_OK(
            eval_term_column(graph.select_list[c], &payload_cols[c]));
      }
      keys_charge.Add(
          static_cast<int64_t>(payload_cols.size() * n * sizeof(Value)));
    }
    ctx->budget.Release(AliasBatchBytes(tuples));
    tuples = AliasBatch();
    const size_t nkeys = keys.size();
    const size_t arity = nkeys + payload_cols.size();
    std::vector<int> sort_keys(nkeys);
    std::iota(sort_keys.begin(), sort_keys.end(), 0);
    auto ts = std::make_unique<TailStream>();
    ts->sorter = std::make_unique<ExternalValueSorter>(
        &ctx->clock, &ctx->budget, stats, arity, std::move(sort_keys));
    for (size_t r = 0; r < n; ++r) {
      std::vector<Value> row;
      row.reserve(arity);
      for (size_t c = 0; c < nkeys; ++c) row.push_back(std::move(keys[c][r]));
      for (auto& pc : payload_cols) row.push_back(std::move(pc[r]));
      XQJG_RETURN_NOT_OK(ts->sorter->Add(std::move(row)));
    }
    keys.clear();
    payload_cols.clear();
    keys_charge.Reset();
    XQJG_RETURN_NOT_OK(ts->sorter->Finish());
    ts->distinct = graph.distinct;
    ts->item_idx = nkeys - 1;
    if (graph.distinct) {
      const size_t lo = dedup_by_key ? 0 : nkeys;
      const size_t hi = dedup_by_key ? nkeys : arity;
      for (size_t c = lo; c < hi; ++c) {
        ts->dedup_idx.push_back(static_cast<int>(c));
      }
    }
    *stream_out = std::move(ts);
    return std::vector<int64_t>{};
  }

  // ---- In-memory tail: one stable sort over a row permutation.
  std::vector<uint32_t> perm = IdentityPerm(n);
  try {
    std::stable_sort(perm.begin(), perm.end(),
                     [&](uint32_t a, uint32_t b) {
                       clock->TickThrow();
                       for (const auto& kc : keys) {
                         if (kc[a].SortLess(kc[b])) return true;
                         if (kc[b].SortLess(kc[a])) return false;
                       }
                       return false;
                     });
  } catch (const BudgetExhausted&) {
    return Status::Timeout("execution exceeded wall-clock budget (DNF)");
  }

  // DISTINCT payload: when the select list carries exactly the sort-key
  // terms (the common shape after isolation — tail metadata from opt/),
  // adjacent key comparison suffices; otherwise evaluate the payload.
  std::vector<std::vector<Value>> payload_cols;
  if (graph.distinct && !dedup_by_key) {
    payload_cols.resize(graph.select_list.size());
    for (size_t c = 0; c < graph.select_list.size(); ++c) {
      XQJG_RETURN_NOT_OK(
          eval_term_column(graph.select_list[c], &payload_cols[c]));
    }
  }
  const std::vector<std::vector<Value>>& dedup_cols =
      dedup_by_key ? keys : payload_cols;

  std::vector<int64_t> out;
  const std::vector<Value>& item_col = keys.back();
  bool have_prev = false;
  uint32_t prev_row = 0;
  for (uint32_t r : perm) {
    XQJG_RETURN_NOT_OK(clock->Tick());
    if (graph.distinct) {
      if (have_prev) {
        bool same = true;
        for (const auto& col : dedup_cols) {
          if (!TailValuesEqual(col[r], col[prev_row])) {
            same = false;
            break;
          }
        }
        if (same) continue;
      }
      prev_row = r;
      have_prev = true;
    }
    const Value& item = item_col[r];
    if (item.is_null()) continue;
    out.push_back(item.AsInt());
  }
  if (stats) stats->rows_out = static_cast<int64_t>(out.size());
  return out;
}

}  // namespace

Result<std::unique_ptr<SequenceStream>> OpenPlanStreamColumnar(
    const PhysicalPlan& plan, const Database& db,
    const PlannerOptions& options, ExecStats* stats) {
  auto ctx = std::make_unique<PlanExecCtx>(options.limits);
  ctx->stats = stats;
  std::unique_ptr<TailStream> tail;
  XQJG_ASSIGN_OR_RETURN(
      std::vector<int64_t> items,
      RunPlanToItems(plan, db, options, stats, ctx.get(), &tail));
  ctx->SyncPeak();
  if (tail != nullptr) {
    std::unique_ptr<SequenceStream> stream =
        std::make_unique<PlanSequenceStream>(std::move(ctx), std::move(tail));
    return stream;
  }
  // The in-memory tail already materialized the sequence; hand it out
  // through the adapter (its retained_bytes honestly reports the vector).
  std::unique_ptr<SequenceStream> stream =
      std::make_unique<VectorSequenceStream>(std::move(items));
  return stream;
}

}  // namespace xqjg::engine::columnar

#include "src/engine/columnar/columnar_exec.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/str.h"
#include "src/engine/columnar/column_batch.h"
#include "src/engine/exec_stream.h"
#include "src/engine/parallel/worker_pool.h"
#include "src/engine/spill.h"
#include "src/opt/plan_check.h"

namespace xqjg::engine::columnar {

using algebra::CmpOp;
using algebra::Comparison;
using algebra::Op;
using algebra::OpKind;
using algebra::OpPtr;
using algebra::Term;

std::string AliasColumn(int alias, const std::string& col) {
  return StrPrintf("d%d.%s", alias, col.c_str());
}

namespace {

// ---------------------------------------------------------------------------
// Term / comparison compilation. A Comparison is bound once per input (column
// name -> ValueColumn*), then evaluated per row; conjuncts whose columns are
// all null-free int64 compile to a branch-light integer kernel. A join binds
// each name against its left input, then its right; σ binds against one
// batch and an empty right.

/// A bound column of a term and the input it reads.
struct ColRef {
  const ValueColumn* col = nullptr;
  bool left = true;
};

struct BoundTerm {
  ColRef a, b;  ///< term.col / term.col2
  bool missing = false;  ///< a named column is absent from both inputs
  Value constant;
};

BoundTerm BindTerm(const Term& term, const ColumnBatch& left,
                   const ColumnBatch& right) {
  BoundTerm t;
  t.constant = term.constant;
  auto resolve = [&](const std::string& name, ColRef* out) {
    if (name.empty()) return;
    int idx = left.ColumnIndex(name);
    if (idx >= 0) {
      out->col = left.cols[static_cast<size_t>(idx)].get();
      out->left = true;
      return;
    }
    idx = right.ColumnIndex(name);
    if (idx >= 0) {
      out->col = right.cols[static_cast<size_t>(idx)].get();
      out->left = false;
      return;
    }
    t.missing = true;
  };
  resolve(term.col, &t.a);
  resolve(term.col2, &t.b);
  return t;
}

/// Σ cols + constant, NULL-poisoning, int+int stays int, any other numeric
/// mix widens to double, non-numeric addition is undefined (NULL).
Value TermValue(const BoundTerm& t, size_t lrow, size_t rrow) {
  if (t.missing) return Value::Null();
  Value acc = t.constant;
  bool have = !acc.is_null();
  auto add = [&](const ColRef& ref) -> bool {
    if (!ref.col) return true;
    const size_t row = ref.left ? lrow : rrow;
    if (ref.col->IsNull(row)) {
      acc = Value::Null();
      return false;
    }
    return AccumulateTermValue(&acc, &have, ref.col->GetValue(row));
  };
  if (!add(t.a)) return Value::Null();
  if (!add(t.b)) return Value::Null();
  return acc;
}

/// Integer fast-path view of a BoundTerm: valid when every referenced
/// column is null-free int64 and the constant (if any) is an int.
struct FastIntTerm {
  bool ok = false;
  const int64_t* a = nullptr;
  bool a_left = true;
  const int64_t* b = nullptr;
  bool b_left = true;
  int64_t k = 0;
};

FastIntTerm FastInt(const BoundTerm& t) {
  FastIntTerm f;
  if (t.missing) return f;
  if (!t.a.col && !t.b.col && t.constant.is_null()) return f;  // NULL term
  if (!t.constant.is_null()) {
    if (t.constant.type() != ValueType::kInt) return f;
    f.k = t.constant.AsInt();
  }
  auto use = [](const ColRef& ref, const int64_t** out, bool* out_left) {
    if (!ref.col) return true;
    if (ref.col->tag() != ColumnTag::kInt || ref.col->has_nulls()) {
      return false;
    }
    *out = ref.col->ints().data();
    *out_left = ref.left;
    return true;
  };
  if (!use(t.a, &f.a, &f.a_left) || !use(t.b, &f.b, &f.b_left)) return f;
  f.ok = true;
  return f;
}

inline int64_t FastIntValue(const FastIntTerm& f, size_t lrow, size_t rrow) {
  int64_t v = f.k;
  if (f.a) v += f.a[f.a_left ? lrow : rrow];
  if (f.b) v += f.b[f.b_left ? lrow : rrow];
  return v;
}

inline bool IntPasses(int64_t a, CmpOp op, int64_t b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

/// Dictionary equality fast path: `dict_col = 'const'` (or ≠) over a left
/// column compiles to the shared DictEqKernel (common/value_column.h — one
/// uint32 compare per row).
DictEqKernel FastDict(const BoundTerm& lhs, const BoundTerm& rhs, CmpOp op) {
  if (op != CmpOp::kEq && op != CmpOp::kNe) return {};
  auto single_dict_col = [](const BoundTerm& t) -> const ValueColumn* {
    if (t.missing || !t.a.col || !t.a.left || t.b.col ||
        !t.constant.is_null()) {
      return nullptr;
    }
    return t.a.col->tag() == ColumnTag::kDictString ? t.a.col : nullptr;
  };
  auto string_const = [](const BoundTerm& t) {
    return !t.missing && !t.a.col && !t.b.col &&
           t.constant.type() == ValueType::kString;
  };
  if (single_dict_col(lhs) && string_const(rhs)) {
    return DictEqKernel::Compile(*lhs.a.col, rhs.constant.AsString(),
                                 op == CmpOp::kNe);
  }
  if (single_dict_col(rhs) && string_const(lhs)) {
    return DictEqKernel::Compile(*rhs.a.col, lhs.constant.AsString(),
                                 op == CmpOp::kNe);
  }
  return {};
}

struct CompiledCmp {
  BoundTerm lhs, rhs;
  FastIntTerm fast_lhs, fast_rhs;
  DictEqKernel fast_dict;
  CmpOp op = CmpOp::kEq;
  bool fast = false;
};

CompiledCmp CompileCmp(const Comparison& cmp, const ColumnBatch& left,
                       const ColumnBatch& right,
                       const std::vector<Value>* params) {
  CompiledCmp c;
  // Parameter markers substitute their bound Value before binding, so a
  // bound string parameter still reaches the dictionary fast path. The
  // common unparameterized case pays no Term copy.
  c.lhs = params ? BindTerm(algebra::ResolveParams(cmp.lhs, params), left,
                            right)
                 : BindTerm(cmp.lhs, left, right);
  c.rhs = params ? BindTerm(algebra::ResolveParams(cmp.rhs, params), left,
                            right)
                 : BindTerm(cmp.rhs, left, right);
  c.op = cmp.op;
  c.fast_lhs = FastInt(c.lhs);
  c.fast_rhs = FastInt(c.rhs);
  c.fast = c.fast_lhs.ok && c.fast_rhs.ok;
  c.fast_dict = FastDict(c.lhs, c.rhs, c.op);
  return c;
}

/// The generic (boxed Value) evaluation, kept out of line so the kernels
/// in CmpPasses stay small enough to inline into the row loops.
bool ValueCmpPasses(const CompiledCmp& c, size_t lrow, size_t rrow) {
  return algebra::CompareValues(TermValue(c.lhs, lrow, rrow), c.op,
                                TermValue(c.rhs, lrow, rrow));
}

/// `lrow` / `rrow` are PHYSICAL rows of the batches the comparison was
/// compiled against (callers translate through ColumnBatch::PhysRow).
inline bool CmpPasses(const CompiledCmp& c, size_t lrow, size_t rrow) {
  if (c.fast) {
    return IntPasses(FastIntValue(c.fast_lhs, lrow, rrow), c.op,
                     FastIntValue(c.fast_rhs, lrow, rrow));
  }
  if (c.fast_dict.ok) return c.fast_dict.Test(lrow);
  return ValueCmpPasses(c, lrow, rrow);
}

// ---------------------------------------------------------------------------
// Row hashing over key column sets.

size_t HashKeysAt(const ColumnBatch& batch, const std::vector<int>& keys,
                  size_t row) {
  size_t h = 0xcbf29ce484222325ULL;
  for (int k : keys) {
    h = h * 1099511628211ULL + batch.cols[static_cast<size_t>(k)]->HashAt(row);
  }
  return h;
}

bool AnyKeyNull(const ColumnBatch& batch, const std::vector<int>& keys,
                size_t row) {
  for (int k : keys) {
    if (batch.cols[static_cast<size_t>(k)]->IsNull(row)) return true;
  }
  return false;
}

bool KeysEqual(const ColumnBatch& a, const std::vector<int>& ka, size_t arow,
               const ColumnBatch& b, const std::vector<int>& kb, size_t brow) {
  for (size_t i = 0; i < ka.size(); ++i) {
    const ValueColumn& ca = *a.cols[static_cast<size_t>(ka[i])];
    const ValueColumn& cb = *b.cols[static_cast<size_t>(kb[i])];
    // NULL join keys never match (Value::Compare: NULL is incomparable).
    if (ca.IsNull(arow) || cb.IsNull(brow)) return false;
    if (!ValueColumn::EqualAt(ca, arow, cb, brow)) return false;
  }
  return true;
}

constexpr size_t kMaxBatchRows = std::numeric_limits<uint32_t>::max();

/// Late-materialization density cutoff: a filter stays lazy (publishes a
/// selection vector over the shared physical columns) while survivors
/// keep at least half of the physical row space. Sparser selections
/// compact immediately — downstream operators would otherwise pay
/// scattered access into full-size columns on every probe, which costs
/// more than the one gather saved (measured on the Q2-class DAG plans).
bool KeepLazy(size_t survivors, size_t phys_rows) {
  return survivors * 2 >= phys_rows;
}

/// Morsel geometry for the parallel paths: below the cutoff a fan-out
/// costs more in scheduling than the scan saves; above it, fixed-size
/// morsels keep the shared claim counter cold while giving the pool
/// enough pieces to balance skew.
constexpr size_t kParallelRowCutoff = 2048;
constexpr size_t kMorselRows = 1024;
/// Outer rows of an index-probe loop: each row is a whole index probe,
/// so far fewer rows amortize a morsel.
constexpr size_t kParallelProbeCutoff = 256;
constexpr size_t kMorselProbeRows = 128;

inline size_t MorselCount(size_t n, size_t morsel = kMorselRows) {
  return (n + morsel - 1) / morsel;
}

// ---------------------------------------------------------------------------
// Pipelined execution over ColumnBatch morsels.
//
// Plans execute as pull-based pipelines: non-blocking operators (σ, π, @,
// #, join probe) transform one ≤kStreamRows window at a time, while the
// blocking ones (sort/serialize, hash build, δ, ϱ) are explicit pipeline
// breakers that consume their input inside Prime(). Breakers charge the
// bytes they buffer against the execution's MemoryBudget; the
// spill-capable ones (sort runs, hash build sides, δ) move buffered state
// to disk when the budget is exceeded and still reproduce the serial
// executor's exact row order (see engine/spill.h, which also owns the
// shared spill geometry: kSpillPartitions, kMinSpillRows, kMergeFanIn,
// SpillPartition). Leaf relations and shared sub-DAGs
// materialize once and are re-streamed per consumer.

int SchemaIndex(const std::vector<std::string>& schema,
                const std::string& name) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i] == name) return static_cast<int>(i);
  }
  return -1;
}

ValueColumn ConstantColumn(const Value& v, size_t n) {
  switch (v.type()) {
    case ValueType::kInt:
      return ValueColumn::Ints(std::vector<int64_t>(n, v.AsInt()));
    case ValueType::kDouble:
      return ValueColumn::Doubles(std::vector<double>(n, v.AsDouble()));
    case ValueType::kString:
      return ValueColumn::Strings(std::vector<std::string>(n, v.AsString()));
    case ValueType::kNull:
      break;
  }
  ValueColumn col;
  for (size_t i = 0; i < n; ++i) col.AppendNull();
  return col;
}

ColumnBatch LiteralBatch(const Op* op) {
  ColumnBatch batch;
  batch.schema = op->schema;
  batch.num_rows = op->rows.size();
  for (size_t c = 0; c < op->schema.size(); ++c) {
    ValueColumn col;
    col.Reserve(op->rows.size());
    for (const auto& row : op->rows) col.Append(row[c]);
    batch.cols.push_back(std::make_shared<const ValueColumn>(std::move(col)));
  }
  return batch;
}

/// The doc relation as a view of `db`'s columns (the algebra's doc
/// columns are the engine layout's prefix) — zero copies.
Result<ColumnBatch> DocRelationView(const Database& db, BudgetClock* clock) {
  XQJG_RETURN_NOT_OK(clock->CheckRows(db.row_count()));
  ColumnBatch batch;
  batch.schema = algebra::DocColumns();
  batch.num_rows = static_cast<size_t>(db.row_count());
  for (size_t c = 0; c < batch.schema.size(); ++c) {
    batch.cols.push_back(db.ColumnPtr(static_cast<int>(c)));
  }
  return batch;
}

/// Shared state of one pipelined execution: DNF clock, memory governor,
/// stats sink, and the knobs every stream needs. The doc relation comes
/// from the infoset table (`doc`) or, for join-graph plans, from the
/// Database the plan's indexes live in (`db`); exactly one is set.
struct PipelineCtx {
  PipelineCtx(const xml::DocTable* doc_table, const Database* database,
              const ExecOptions& options)
      : doc(doc_table),
        db(database),
        clock(options.limits),
        budget(options.limits.max_memory_bytes),
        stats(options.stats),
        threads(options.threads),
        params(options.params) {
    const char* env = std::getenv("XQJG_DCHECK_BATCHES");
    dcheck_batches = env && *env && std::string(env) != "0";
  }

  void SyncPeak() {
    if (stats) {
      stats->peak_memory_bytes =
          std::max(stats->peak_memory_bytes, budget.peak());
    }
  }

  const xml::DocTable* doc;
  const Database* db;
  BudgetClock clock;
  MemoryBudget budget;
  ExecStats* stats;
  const int threads;
  const std::vector<Value>* params;
  /// XQJG_DCHECK_BATCHES: verify every stream-output batch (batch-sel).
  bool dcheck_batches = false;
};

/// One pipeline operator. Callers pull batches through Next(), which
/// wraps the operator's NextImpl with the per-stream invariants: batch
/// dchecks, tuples_materialized accounting, and the cumulative row-budget
/// tick — so no NextImpl loop can forget the DNF guard.
class BatchStream {
 public:
  BatchStream(PipelineCtx* ctx, const char* label, bool count_rows = true)
      : ctx_(ctx), label_(label), count_rows_(count_rows) {}
  virtual ~BatchStream() = default;

  BatchStream(const BatchStream&) = delete;
  BatchStream& operator=(const BatchStream&) = delete;

  /// Runs the blocking work: breakers consume their whole input here (and
  /// spill if the governor says so); pass-through streams forward to
  /// their children. Idempotent. Must be called before the first Next().
  virtual Status Prime() { return Status::OK(); }

  /// Pulls the next batch into *out; false when the stream is exhausted.
  Result<bool> Next(ColumnBatch* out) {
    *out = ColumnBatch{};
    XQJG_ASSIGN_OR_RETURN(bool more, NextImpl(out));
    if (!more) return false;
    if (ctx_->dcheck_batches) {
      XQJG_RETURN_NOT_OK(opt::CheckColumnBatch(*out, label_));
    }
    rows_out_ += static_cast<int64_t>(out->num_rows);
    if (count_rows_ && ctx_->stats) {
      ctx_->stats->tuples_materialized +=
          static_cast<int64_t>(out->num_rows);
    }
    XQJG_RETURN_NOT_OK(ctx_->clock.TickRows(rows_out_));
    return true;
  }

  /// Result cardinality when known after Prime() (the final sort breaker
  /// knows it; -1 otherwise).
  virtual int64_t total_rows() const { return -1; }

  int64_t rows_out() const { return rows_out_; }

 protected:
  virtual Result<bool> NextImpl(ColumnBatch* out) = 0;

  PipelineCtx* ctx_;
  const char* label_;
  /// Re-streaming a memoized batch must not re-count tuples_materialized
  /// (SliceStream sets this false).
  bool count_rows_;
  int64_t rows_out_ = 0;
};

/// Emits `src` as ≤kStreamRows windows. A window is a lazy view: the
/// shared physical columns plus a selection of the window's rows; callers
/// that need density compact via NormalizeDensity.
Result<bool> NextWindow(const ColumnBatch& src, size_t* pos,
                        ColumnBatch* out) {
  if (*pos >= src.num_rows) return false;
  if (*pos == 0 && src.num_rows <= kStreamRows) {
    *out = src;  // shares columns; no per-window selection needed
    *pos = src.num_rows;
    return true;
  }
  const size_t end = std::min(src.num_rows, *pos + kStreamRows);
  out->schema = src.schema;
  out->num_rows = end - *pos;
  out->cols = src.cols;
  if (src.cols.empty()) {
    // Zero-column batches have no physical row space; the count alone
    // carries the window.
    *pos = end;
    return true;
  }
  std::vector<uint32_t> sel;
  sel.reserve(end - *pos);
  for (size_t i = *pos; i < end; ++i) {
    sel.push_back(static_cast<uint32_t>(src.PhysRow(i)));
  }
  out->sel = std::make_shared<const std::vector<uint32_t>>(std::move(sel));
  *pos = end;
  return true;
}

/// Streams a memoized batch (leaf relation or shared sub-DAG) without
/// re-counting its tuples.
class SliceStream final : public BatchStream {
 public:
  SliceStream(PipelineCtx* ctx, std::shared_ptr<const ColumnBatch> src)
      : BatchStream(ctx, "slice", /*count_rows=*/false),
        src_(std::move(src)) {}

 protected:
  Result<bool> NextImpl(ColumnBatch* out) override {
    return NextWindow(*src_, &pos_, out);
  }

 private:
  std::shared_ptr<const ColumnBatch> src_;
  size_t pos_ = 0;
};

/// A stream with one upstream child; forwards Prime() by default.
class UnaryStream : public BatchStream {
 public:
  UnaryStream(PipelineCtx* ctx, const char* label, const Op* op,
              std::unique_ptr<BatchStream> child, bool count_rows = true)
      : BatchStream(ctx, label, count_rows),
        op_(op),
        child_(std::move(child)) {}

  Status Prime() override { return child_->Prime(); }

 protected:
  const Op* op_;
  std::unique_ptr<BatchStream> child_;
};

/// @ and # append a column aligned with the physical row space; when the
/// window is a sparse view of large shared columns that would cost
/// O(phys) per window, so compact to a dense batch first (same cutoff σ
/// uses for late materialization).
void NormalizeDensity(ColumnBatch* b) {
  if (!b->sel || b->cols.empty()) return;
  if (KeepLazy(b->num_rows, b->PhysSize())) return;
  std::vector<uint32_t> rows(b->sel->begin(), b->sel->end());
  ColumnBatch dense = GatherPhysicalRows(*b, rows);
  dense.schema = std::move(b->schema);
  dense.num_rows = b->num_rows;
  *b = std::move(dense);
}

/// The physical rows `sel` (increasing) of `in`, the way σ publishes its
/// survivors: `in` itself when nothing was dropped, a lazy view over the
/// shared columns while the selection keeps the density cutoff, else a
/// compacted batch.
ColumnBatch SelectRows(const ColumnBatch& in, std::vector<uint32_t> sel,
                       const std::vector<std::string>& schema) {
  ColumnBatch out;
  if (sel.size() == in.num_rows) {
    out = in;
  } else if (in.cols.empty() || !KeepLazy(sel.size(), in.PhysSize())) {
    // A zero-column batch has no physical row space to select into; its
    // row count alone carries the result.
    if (!in.cols.empty()) out = GatherPhysicalRows(in, sel);
    out.num_rows = sel.size();
  } else {
    out.cols = in.cols;  // shared — deferred gather
    out.num_rows = sel.size();
    out.sel = std::make_shared<const std::vector<uint32_t>>(std::move(sel));
  }
  out.schema = schema;
  return out;
}

/// One window of σ — the exact EvalSelect algorithm (late
/// materialization, density cutoff, morsel fan-out) applied per batch.
Result<ColumnBatch> FilterOneBatch(PipelineCtx* ctx, const Op* op,
                                   const ColumnBatch& in) {
  if (in.num_rows > kMaxBatchRows) {
    return Status::Internal("select input exceeds batch row limit");
  }
  std::vector<CompiledCmp> cmps;
  cmps.reserve(op->pred.conjuncts.size());
  for (const auto& cmp : op->pred.conjuncts) {
    cmps.push_back(CompileCmp(cmp, in, ColumnBatch{}, ctx->params));
  }
  // Late materialization: the filter produces a selection vector over the
  // shared physical columns — no gather. Filters logical rows
  // [begin, end) into *out.
  auto filter = [&](size_t begin, size_t end, BudgetClock* clock,
                    std::vector<uint32_t>* out) -> Status {
    for (size_t row = begin; row < end; ++row) {
      const size_t phys = in.PhysRow(row);
      if (std::all_of(cmps.begin(), cmps.end(), [&](const CompiledCmp& c) {
            return CmpPasses(c, phys, phys);
          })) {
        out->push_back(static_cast<uint32_t>(phys));
      }
      XQJG_RETURN_NOT_OK(clock->Tick());
    }
    return Status::OK();
  };
  std::vector<uint32_t> sel;
  if (ctx->threads > 1 && in.num_rows >= kParallelRowCutoff) {
    // Morsel fan-out: each morsel filters its logical row range into a
    // private selection slice; concatenating the slices in morsel order
    // reproduces the serial emission order exactly.
    const size_t n = in.num_rows;
    const size_t morsels = MorselCount(n);
    std::vector<std::vector<uint32_t>> parts(morsels);
    RegionBudget budget(ctx->clock);
    parallel::WorkerPool::Instance().ParallelFor(
        ctx->threads, morsels, [&](size_t m, int) {
          BudgetClock wclock = budget.Worker();
          Status st = filter(m * kMorselRows,
                             std::min(n, (m + 1) * kMorselRows), &wclock,
                             &parts[m]);
          if (!st.ok()) budget.Abort(st);
        });
    XQJG_RETURN_NOT_OK(budget.status());
    size_t total = 0;
    for (const auto& part : parts) total += part.size();
    sel.reserve(total);
    for (const auto& part : parts) {
      sel.insert(sel.end(), part.begin(), part.end());
    }
  } else {
    XQJG_RETURN_NOT_OK(filter(0, in.num_rows, &ctx->clock, &sel));
  }
  return SelectRows(in, std::move(sel), op->schema);
}

class FilterStream final : public UnaryStream {
 public:
  FilterStream(PipelineCtx* ctx, const Op* op,
               std::unique_ptr<BatchStream> child)
      : UnaryStream(ctx, "select", op, std::move(child)) {}

 protected:
  Result<bool> NextImpl(ColumnBatch* out) override {
    for (;;) {
      ColumnBatch in;
      XQJG_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
      if (!more) return false;
      XQJG_ASSIGN_OR_RETURN(*out, FilterOneBatch(ctx_, op_, in));
      if (out->num_rows > 0) return true;
      // A fully filtered window yields nothing; keep pulling.
    }
  }
};

class ProjectStream final : public UnaryStream {
 public:
  ProjectStream(PipelineCtx* ctx, const Op* op,
                std::unique_ptr<BatchStream> child)
      : UnaryStream(ctx, "project", op, std::move(child)) {}

 protected:
  Result<bool> NextImpl(ColumnBatch* out) override {
    ColumnBatch in;
    XQJG_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) return false;
    out->schema = op_->schema;
    out->num_rows = in.num_rows;
    out->sel = in.sel;  // lazy rows pass through untouched
    out->cols.reserve(op_->proj.size());
    for (const auto& [out_name, src] : op_->proj) {
      (void)out_name;
      int idx = in.ColumnIndex(src);
      if (idx < 0) {
        return Status::Internal("projection source missing: " + src);
      }
      out->cols.push_back(in.cols[static_cast<size_t>(idx)]);  // zero copy
    }
    return true;
  }
};

class AttachStream final : public UnaryStream {
 public:
  AttachStream(PipelineCtx* ctx, const Op* op,
               std::unique_ptr<BatchStream> child)
      : UnaryStream(ctx, "attach", op, std::move(child)) {}

 protected:
  Result<bool> NextImpl(ColumnBatch* out) override {
    ColumnBatch in;
    XQJG_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) return false;
    NormalizeDensity(&in);
    out->schema = op_->schema;
    out->num_rows = in.num_rows;
    out->sel = in.sel;
    out->cols = in.cols;  // shared
    // The constant column spans the physical row space so it aligns with
    // the shared columns under the same selection vector.
    out->cols.push_back(std::make_shared<const ValueColumn>(
        ConstantColumn(op_->val, in.PhysSize())));
    return true;
  }
};

/// `in` plus an int64 column numbering its logical rows *next, *next+1, …
/// (advancing *next). The numbers scatter to the physical slots, so the
/// window's selection still applies — the # column, and the arrival
/// sequence numbers that spilled rows carry.
Result<ColumnBatch> WithRowNumbers(ColumnBatch in, int64_t* next,
                                   BudgetClock* clock) {
  NormalizeDensity(&in);
  std::vector<int64_t> ids(in.PhysSize(), 0);
  for (size_t i = 0; i < in.num_rows; ++i) {
    ids[in.PhysRow(i)] = (*next)++;
    XQJG_RETURN_NOT_OK(clock->Tick());
  }
  in.cols.push_back(
      std::make_shared<const ValueColumn>(ValueColumn::Ints(std::move(ids))));
  return in;
}

class RowIdStream final : public UnaryStream {
 public:
  RowIdStream(PipelineCtx* ctx, const Op* op,
              std::unique_ptr<BatchStream> child)
      : UnaryStream(ctx, "rowid", op, std::move(child)) {}

 protected:
  Result<bool> NextImpl(ColumnBatch* out) override {
    ColumnBatch in;
    XQJG_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) return false;
    // Ids number LOGICAL rows across the whole stream (next_ carries the
    // count over window boundaries).
    XQJG_ASSIGN_OR_RETURN(*out, WithRowNumbers(std::move(in), &next_,
                                               &ctx_->clock));
    out->schema = op_->schema;
    return true;
  }

 private:
  int64_t next_ = 1;
};

/// Drains a stream into one dense batch — the shape the non-streaming
/// exits and the rank breaker need. The result is charged against the
/// governor via *charge when given (tracked, not spillable).
Result<ColumnBatch> DrainStreamDense(BatchStream* stream,
                                     const std::vector<std::string>& schema,
                                     MemoryCharge* charge) {
  std::vector<ValueColumn> cols(schema.size());
  size_t rows = 0;
  for (;;) {
    ColumnBatch in;
    XQJG_ASSIGN_OR_RETURN(bool more, stream->Next(&in));
    if (!more) break;
    if (in.cols.size() != cols.size()) {
      return Status::Internal("stream batch arity mismatch");
    }
    // Row admission happened inside Next (BatchStream ticks the clock per
    // batch); the appends below only restructure admitted rows.
    // xqjg-lint: allow(no-budget-guard)
    for (size_t c = 0; c < cols.size(); ++c) {
      const ValueColumn& src = *in.cols[c];
      for (size_t r = 0; r < in.num_rows; ++r) {
        cols[c].AppendFrom(src, in.PhysRow(r));
      }
    }
    rows += in.num_rows;
    if (rows > kMaxBatchRows) {
      return Status::Internal("stream result exceeds batch row limit");
    }
  }
  ColumnBatch acc;
  acc.schema = schema;
  acc.num_rows = rows;
  for (ValueColumn& c : cols) {
    acc.cols.push_back(std::make_shared<const ValueColumn>(std::move(c)));
  }
  if (charge) charge->Set(ApproxBatchBytes(acc));
  return acc;
}

/// ϱ — a breaker by necessity (ranks need the whole input). The drained
/// input is tracked but not spillable: the rank column must scatter into
/// the full physical row space anyway, so spilling would buy nothing.
class RankStream final : public UnaryStream {
 public:
  RankStream(PipelineCtx* ctx, const Op* op,
             std::unique_ptr<BatchStream> child)
      : UnaryStream(ctx, "rank", op, std::move(child)),
        charge_(&ctx->budget) {}

  Status Prime() override {
    if (primed_) return Status::OK();
    primed_ = true;
    XQJG_RETURN_NOT_OK(child_->Prime());
    XQJG_ASSIGN_OR_RETURN(
        ColumnBatch in,
        DrainStreamDense(child_.get(), op_->children[0]->schema, &charge_));
    std::vector<const ValueColumn*> order;
    for (const auto& b : op_->order) {
      int idx = in.ColumnIndex(b);
      if (idx < 0) return Status::Internal("rank criterion missing: " + b);
      order.push_back(in.cols[static_cast<size_t>(idx)].get());
    }
    std::vector<uint32_t> perm(in.num_rows);
    std::iota(perm.begin(), perm.end(), 0);
    auto less = [&](uint32_t a, uint32_t b) {
      ctx_->clock.TickThrow();
      for (const ValueColumn* c : order) {
        if (ValueColumn::SortLessAt(*c, a, *c, b)) return true;
        if (ValueColumn::SortLessAt(*c, b, *c, a)) return false;
      }
      return false;
    };
    std::vector<int64_t> ranks(in.num_rows, 0);
    try {
      std::stable_sort(perm.begin(), perm.end(), less);
      // RANK() semantics: ties share the rank of their first row
      // (1-based).
      for (size_t k = 0; k < perm.size(); ++k) {
        if (k > 0 && !less(perm[k - 1], perm[k]) &&
            !less(perm[k], perm[k - 1])) {
          ranks[perm[k]] = ranks[perm[k - 1]];
        } else {
          ranks[perm[k]] = static_cast<int64_t>(k) + 1;
        }
      }
    } catch (const BudgetExhausted&) {
      return Status::Timeout("execution exceeded wall-clock budget (DNF)");
    }
    ColumnBatch out;
    out.schema = op_->schema;
    out.num_rows = in.num_rows;
    out.cols = in.cols;  // shared (drained input is dense)
    out.cols.push_back(std::make_shared<const ValueColumn>(
        ValueColumn::Ints(std::move(ranks))));
    charge_.Set(ApproxBatchBytes(out));
    out_ = std::make_shared<const ColumnBatch>(std::move(out));
    return Status::OK();
  }

 protected:
  Result<bool> NextImpl(ColumnBatch* out) override {
    if (out_ == nullptr) return false;
    XQJG_ASSIGN_OR_RETURN(bool more, NextWindow(*out_, &pos_, out));
    if (!more) {
      // Every window has been consumed (typically inside a downstream
      // breaker's Prime). Windows share the physical columns, so any
      // consumer that still needs them holds — and has charged — its own
      // reference; keeping ours would make an open streaming cursor
      // retain the full rank materialization for its whole lifetime.
      out_.reset();
      charge_.Reset();
    }
    return more;
  }

 private:
  MemoryCharge charge_;
  bool primed_ = false;
  std::shared_ptr<const ColumnBatch> out_;
  size_t pos_ = 0;
};

/// The serialize sort — the root pipeline breaker. Prime() feeds the whole
/// child to an ExternalSorter keyed on (order columns…, item) — (pos,
/// item) for compiled plans, (ORDER BY terms…, item) for join graphs. The
/// sort is stable, so rows equal on every key keep their arrival order.
/// The result cardinality is known when Prime() returns, and emission is
/// on-demand work: window gathers from the sorted permutation, or the run
/// merge from disk once the governor made the sorter spill.
class SerializeStream final : public UnaryStream {
 public:
  SerializeStream(PipelineCtx* ctx, const Op* op,
                  std::unique_ptr<BatchStream> child)
      : UnaryStream(ctx, "serialize", op, std::move(child)) {}

  Status Prime() override {
    if (sorter_) return Status::OK();
    XQJG_RETURN_NOT_OK(child_->Prime());
    const std::vector<std::string>& in_schema = op_->children[0]->schema;
    std::vector<int> keys;
    for (const std::string& name : op_->order) {
      keys.push_back(SchemaIndex(in_schema, name));
    }
    const int item_idx = SchemaIndex(in_schema, op_->col);
    if (keys.empty() || keys.back() != item_idx) keys.push_back(item_idx);
    if (std::find(keys.begin(), keys.end(), -1) != keys.end()) {
      return Status::Internal("serialize columns missing");
    }
    sorter_ = std::make_unique<ExternalSorter>(&ctx_->clock, &ctx_->budget,
                                               ctx_->stats, std::move(keys));
    for (;;) {
      ColumnBatch in;
      XQJG_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
      if (!more) break;
      XQJG_RETURN_NOT_OK(sorter_->Add(std::move(in)));
    }
    return sorter_->Finish();
  }

  int64_t total_rows() const override { return sorter_->total_rows(); }

 protected:
  Result<bool> NextImpl(ColumnBatch* out) override {
    XQJG_ASSIGN_OR_RETURN(bool more, sorter_->Next(out));
    out->schema = op_->schema;
    return more;
  }

 private:
  std::unique_ptr<ExternalSorter> sorter_;
};

/// Rows of `in` plus its arrival sequence column, routed to their key
/// hash partitions. Rows with a NULL key are dropped when `drop_null_keys`
/// (a NULL join key never matches).
Status SpillToPartitions(const ColumnBatch& in, const std::vector<int>& keys,
                         bool drop_null_keys, int64_t* seq,
                         SpillPartitionSet* parts, BudgetClock* clock) {
  XQJG_ASSIGN_OR_RETURN(ColumnBatch b, WithRowNumbers(in, seq, clock));
  std::vector<uint8_t> part(b.num_rows);
  for (size_t r = 0; r < b.num_rows; ++r) {
    const size_t p = b.PhysRow(r);
    part[r] = drop_null_keys && AnyKeyNull(b, keys, p)
                  ? kSpillPartitions
                  : SpillPartition(HashKeysAt(b, keys, p));
    XQJG_RETURN_NOT_OK(clock->Tick());
  }
  return parts->Append(b, part);
}

/// Join (hash, residual-only, or cross). The build side (right child) is
/// the breaker: Prime() consumes it into retained batches plus a bucket
/// table. The probe side streams — each pulled left window probes and
/// emits one output window, in the serial executor's exact order (probe
/// arrival order, then bucket insertion order).
///
/// When the governor trips during a hashable build, the join goes Grace:
/// both sides hash-partition to disk with their arrival sequence numbers
/// as an extra column, and each partition pair runs the in-memory build
/// and probe. The matches carry both sequence numbers into an
/// ExternalSorter keyed (probe seq, build seq) — restoring exactly the
/// order the in-memory probe would have emitted. Cross and residual-only
/// joins keep their build resident (tracked, not spillable): they have no
/// keys to partition on.
class HashJoinStream final : public BatchStream {
 public:
  HashJoinStream(PipelineCtx* ctx, const Op* op,
                 std::unique_ptr<BatchStream> left,
                 std::unique_ptr<BatchStream> right)
      : BatchStream(ctx, "join"),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)),
        charge_(&ctx->budget) {}

  Status Prime() override {
    if (primed_) return Status::OK();
    primed_ = true;
    XQJG_RETURN_NOT_OK(left_->Prime());
    XQJG_RETURN_NOT_OK(right_->Prime());
    const std::vector<std::string>& ls = op_->children[0]->schema;
    const std::vector<std::string>& rs = op_->children[1]->schema;
    lw_ = ls.size();
    rw_ = rs.size();
    // Split the predicate into hashable equality conjuncts (plain col =
    // plain col across the two sides) and residual comparisons.
    if (op_->kind == OpKind::kJoin) {
      for (const auto& cmp : op_->pred.conjuncts) {
        if (cmp.IsColEq()) {
          int li = SchemaIndex(ls, cmp.lhs.col);
          int ri = SchemaIndex(rs, cmp.rhs.col);
          if (li < 0 && ri < 0) {
            li = SchemaIndex(ls, cmp.rhs.col);
            ri = SchemaIndex(rs, cmp.lhs.col);
          }
          if (li >= 0 && ri >= 0) {
            lkeys_.push_back(li);
            rkeys_.push_back(ri);
            continue;
          }
        }
        residual_.push_back(cmp);
      }
    }
    // Build: consume the right child.
    for (;;) {
      ColumnBatch in;
      XQJG_ASSIGN_OR_RETURN(bool more, right_->Next(&in));
      if (!more) break;
      if (in.num_rows == 0) continue;
      if (build_parts_) {
        XQJG_RETURN_NOT_OK(SpillToPartitions(in, rkeys_, true, &bseq_,
                                             build_parts_.get(),
                                             &ctx_->clock));
        continue;
      }
      charge_.Add(ApproxBatchBytes(in));
      build_bufs_.push_back(std::make_shared<const ColumnBatch>(std::move(in)));
      build_rows_ += build_bufs_.back()->num_rows;
      if (!lkeys_.empty()) {
        XQJG_RETURN_NOT_OK(InsertBuild(build_bufs_.size() - 1));
        if (ctx_->budget.ShouldSpill() && build_rows_ >= kMinSpillRows) {
          XQJG_RETURN_NOT_OK(StartBuildSpill());
        }
      }
    }
    if (build_parts_) return JoinPartitions();
    return Status::OK();
  }

 protected:
  Result<bool> NextImpl(ColumnBatch* out) override {
    if (sorter_) {
      XQJG_ASSIGN_OR_RETURN(bool more, sorter_->Next(out));
      if (more) {
        // Drop the sequence columns: (left…, pseq, right…, bseq).
        out->cols.erase(out->cols.begin() +
                        static_cast<ptrdiff_t>(lw_ + 1 + rw_));
        out->cols.erase(out->cols.begin() + static_cast<ptrdiff_t>(lw_));
        out->schema = op_->schema;
      }
      return more;
    }
    for (;;) {
      ColumnBatch in;
      XQJG_ASSIGN_OR_RETURN(bool more, left_->Next(&in));
      if (!more) {
        // Probe side exhausted: the build side is dead weight from here
        // on, and an open cursor must not retain it.
        build_bufs_.clear();
        buckets_.clear();
        charge_.Reset();
        return false;
      }
      XQJG_ASSIGN_OR_RETURN(bool emitted, ProbeBatch(in, out));
      if (emitted) {
        out->schema = op_->schema;
        return true;
      }
      // A matchless probe window yields nothing; keep pulling.
    }
  }

 private:
  struct BuildRef {
    uint32_t batch;
    uint32_t phys;
  };

  /// Adds build_bufs_[bi]'s rows to the buckets in arrival order. NULL
  /// keys are skipped — NULL never equals NULL in a join predicate.
  Status InsertBuild(size_t bi) {
    const ColumnBatch& b = *build_bufs_[bi];
    for (size_t j = 0; j < b.num_rows; ++j) {
      const size_t jp = b.PhysRow(j);
      if (AnyKeyNull(b, rkeys_, jp)) continue;
      buckets_[HashKeysAt(b, rkeys_, jp)].push_back(
          BuildRef{static_cast<uint32_t>(bi), static_cast<uint32_t>(jp)});
      XQJG_RETURN_NOT_OK(ctx_->clock.Tick());
    }
    return Status::OK();
  }

  /// Grace handover: re-route every retained build row to its hash
  /// partition on disk, then drop the in-memory build state.
  Status StartBuildSpill() {
    build_parts_ =
        std::make_unique<SpillPartitionSet>(&ctx_->clock, ctx_->stats);
    for (const auto& b : build_bufs_) {
      XQJG_RETURN_NOT_OK(SpillToPartitions(*b, rkeys_, true, &bseq_,
                                           build_parts_.get(), &ctx_->clock));
    }
    build_bufs_.clear();
    buckets_.clear();
    charge_.Reset();
    return Status::OK();
  }

  /// Partitions the whole probe stream, then runs the in-memory build and
  /// probe on each partition pair. The spilled batches carry their
  /// sequence column after the child's columns; their schema names only
  /// the child's columns, which keep their positions.
  Status JoinPartitions() {
    SpillPartitionSet probe_parts(&ctx_->clock, ctx_->stats);
    int64_t pseq = 0;
    for (;;) {
      ColumnBatch in;
      XQJG_ASSIGN_OR_RETURN(bool more, left_->Next(&in));
      if (!more) break;
      XQJG_RETURN_NOT_OK(SpillToPartitions(in, lkeys_, true, &pseq,
                                           &probe_parts, &ctx_->clock));
    }
    sorter_ = std::make_unique<ExternalSorter>(
        &ctx_->clock, &ctx_->budget, ctx_->stats,
        std::vector<int>{static_cast<int>(lw_), static_cast<int>(lw_ + 1 + rw_)});
    for (size_t p = 0; p < kSpillPartitions; ++p) {
      if (build_parts_->rows(p) == 0 || probe_parts.rows(p) == 0) continue;
      build_bufs_.clear();
      buckets_.clear();
      int64_t bytes = 0;
      for (size_t next = 0;;) {
        ColumnBatch build;
        XQJG_ASSIGN_OR_RETURN(bool more, build_parts_->Read(p, &next, &build));
        if (!more) break;
        build.schema = op_->children[1]->schema;
        bytes += ApproxBatchBytes(build);
        build_bufs_.push_back(
            std::make_shared<const ColumnBatch>(std::move(build)));
        XQJG_RETURN_NOT_OK(InsertBuild(build_bufs_.size() - 1));
      }
      charge_.Set(bytes);
      for (size_t next = 0;;) {
        ColumnBatch probe, out;
        XQJG_ASSIGN_OR_RETURN(bool more, probe_parts.Read(p, &next, &probe));
        if (!more) break;
        probe.schema = op_->children[0]->schema;
        XQJG_ASSIGN_OR_RETURN(bool emitted, ProbeBatch(probe, &out));
        if (!emitted) continue;
        XQJG_RETURN_NOT_OK(sorter_->Add(std::move(out)));
        XQJG_RETURN_NOT_OK(ctx_->clock.TickRows(sorter_->total_rows()));
      }
    }
    build_parts_.reset();
    build_bufs_.clear();
    buckets_.clear();
    charge_.Reset();
    return sorter_->Finish();
  }

  /// In-memory probe of one left window against the retained build side.
  Result<bool> ProbeBatch(const ColumnBatch& left, ColumnBatch* out) {
    if (left.num_rows > kMaxBatchRows) {
      return Status::Internal("join input exceeds batch row limit");
    }
    // Residual comparisons bind per (probe window, build batch) pair.
    std::vector<std::vector<CompiledCmp>> res(build_bufs_.size());
    for (size_t bi = 0; bi < build_bufs_.size(); ++bi) {
      res[bi].reserve(residual_.size());
      for (const auto& cmp : residual_) {
        res[bi].push_back(
            CompileCmp(cmp, left, *build_bufs_[bi], ctx_->params));
      }
    }
    std::vector<uint32_t> lidx;
    RowRefs rrefs;  // the build side of each match
    auto match = [&](size_t lp, const BuildRef& ref) -> bool {
      for (const CompiledCmp& c : res[ref.batch]) {
        if (!CmpPasses(c, lp, ref.phys)) return false;
      }
      return true;
    };
    // Probes left rows [begin, end) into (ld, rd); the clock's row budget
    // counts `base` rows produced before these.
    auto probe = [&](size_t begin, size_t end, BudgetClock* clock,
                     int64_t base, std::vector<uint32_t>* ld,
                     RowRefs* rd) -> Status {
      for (size_t l = begin; l < end; ++l) {
        XQJG_RETURN_NOT_OK(clock->Tick());
        const size_t lp = left.PhysRow(l);
        if (AnyKeyNull(left, lkeys_, lp)) continue;
        auto it = buckets_.find(HashKeysAt(left, lkeys_, lp));
        if (it == buckets_.end()) continue;
        for (const BuildRef& ref : it->second) {
          if (!KeysEqual(left, lkeys_, lp, *build_bufs_[ref.batch], rkeys_,
                         ref.phys) ||
              !match(lp, ref)) {
            continue;
          }
          ld->push_back(static_cast<uint32_t>(lp));
          rd->emplace_back(build_bufs_[ref.batch].get(), ref.phys);
          XQJG_RETURN_NOT_OK(
              clock->TickRows(base + static_cast<int64_t>(ld->size())));
        }
      }
      return Status::OK();
    };
    if (!lkeys_.empty()) {
      const size_t ln = left.num_rows;
      if (ctx_->threads > 1 && ln >= kParallelRowCutoff) {
        // Shared read-only probe: morsels over the window's rows append
        // into private pair slices, concatenated in morsel order.
        const size_t morsels = MorselCount(ln);
        std::vector<std::vector<uint32_t>> lparts(morsels);
        std::vector<RowRefs> rparts(morsels);
        RegionBudget budget(ctx_->clock);
        parallel::WorkerPool::Instance().ParallelFor(
            ctx_->threads, morsels, [&](size_t m, int) {
              BudgetClock wclock = budget.Worker();
              Status st = probe(m * kMorselRows,
                                std::min(ln, (m + 1) * kMorselRows), &wclock,
                                0, &lparts[m], &rparts[m]);
              if (st.ok()) {
                st = wclock.FinishLocalRows(
                    static_cast<int64_t>(lparts[m].size()));
              }
              if (!st.ok()) budget.Abort(st);
            });
        XQJG_RETURN_NOT_OK(budget.status());
        size_t total = 0;
        for (const auto& part : lparts) total += part.size();
        lidx.reserve(total);
        rrefs.reserve(total);
        for (size_t m = 0; m < morsels; ++m) {
          lidx.insert(lidx.end(), lparts[m].begin(), lparts[m].end());
          rrefs.insert(rrefs.end(), rparts[m].begin(), rparts[m].end());
        }
      } else {
        XQJG_RETURN_NOT_OK(
            probe(0, ln, &ctx_->clock, rows_out_, &lidx, &rrefs));
      }
    } else {
      // Cross / residual-only: nested loop over the retained build
      // batches in arrival order.
      for (size_t l = 0; l < left.num_rows; ++l) {
        XQJG_RETURN_NOT_OK(ctx_->clock.Tick());
        const size_t lp = left.PhysRow(l);
        for (size_t bi = 0; bi < build_bufs_.size(); ++bi) {
          const ColumnBatch& rb = *build_bufs_[bi];
          for (size_t j = 0; j < rb.num_rows; ++j) {
            const BuildRef ref{static_cast<uint32_t>(bi),
                               static_cast<uint32_t>(rb.PhysRow(j))};
            if (!match(lp, ref)) continue;
            lidx.push_back(static_cast<uint32_t>(lp));
            rrefs.emplace_back(&rb, ref.phys);
            XQJG_RETURN_NOT_OK(ctx_->clock.TickRows(
                rows_out_ + static_cast<int64_t>(lidx.size())));
          }
        }
      }
    }
    if (lidx.empty()) return false;
    if (lidx.size() > kMaxBatchRows) {
      return Status::Internal("join output exceeds batch row limit");
    }
    // Output columns are left ++ build (a spilled partition's batches
    // include their sequence columns); the caller names them.
    out->num_rows = lidx.size();
    const size_t lw = left.cols.size();
    const size_t ncols = lw + build_bufs_.front()->cols.size();
    out->cols.resize(ncols);
    // Each gather writes its own pre-sized slot, so columns materialize
    // independently. Pairs were admitted above.
    auto build_col = [&](size_t c) {
      if (c < lw) {
        out->cols[c] =
            std::make_shared<const ValueColumn>(left.cols[c]->Gather(lidx));
        return;
      }
      out->cols[c] =
          std::make_shared<const ValueColumn>(GatherColumn(rrefs, c - lw));
    };
    if (ctx_->threads > 1 && ncols > 1 &&
        lidx.size() >= kParallelRowCutoff) {
      parallel::WorkerPool::Instance().ParallelFor(
          ctx_->threads, ncols, [&](size_t c, int) { build_col(c); });
    } else {
      for (size_t c = 0; c < ncols; ++c) build_col(c);
    }
    return true;
  }

  const Op* op_;
  std::unique_ptr<BatchStream> left_;
  std::unique_ptr<BatchStream> right_;
  MemoryCharge charge_;
  bool primed_ = false;
  size_t lw_ = 0;
  size_t rw_ = 0;
  std::vector<int> lkeys_, rkeys_;
  std::vector<Comparison> residual_;
  // Build state: the whole build side, or one partition's.
  std::vector<std::shared_ptr<const ColumnBatch>> build_bufs_;
  std::unordered_map<size_t, std::vector<BuildRef>> buckets_;
  size_t build_rows_ = 0;
  // Grace state.
  std::unique_ptr<SpillPartitionSet> build_parts_;
  int64_t bseq_ = 0;
  std::unique_ptr<ExternalSorter> sorter_;
};

/// δ — duplicate elimination, a breaker: Prime() consumes the child. In
/// memory the input batches are retained (charged) and deduped with
/// cross-batch bucket probes; each batch then emits its first occurrences
/// the way σ emits survivors. Under pressure the rows hash-partition to
/// disk with their arrival sequence numbers, each partition runs the same
/// dedup, and an ExternalSorter keyed on the sequence number merges the
/// survivors back into first-occurrence order.
class DistinctStream final : public UnaryStream {
 public:
  DistinctStream(PipelineCtx* ctx, const Op* op,
                 std::unique_ptr<BatchStream> child)
      : UnaryStream(ctx, "distinct", op, std::move(child)),
        charge_(&ctx->budget) {}

  Status Prime() override {
    if (primed_) return Status::OK();
    primed_ = true;
    XQJG_RETURN_NOT_OK(child_->Prime());
    arity_ = op_->children[0]->schema.size();
    all_.resize(arity_);
    std::iota(all_.begin(), all_.end(), 0);
    for (;;) {
      ColumnBatch in;
      XQJG_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
      if (!more) break;
      if (in.num_rows == 0) continue;
      if (parts_) {
        XQJG_RETURN_NOT_OK(SpillToPartitions(in, all_, false, &seq_,
                                             parts_.get(), &ctx_->clock));
        continue;
      }
      buffered_rows_ += in.num_rows;
      if (buffered_rows_ > kMaxBatchRows) {
        return Status::Internal("distinct input exceeds batch row limit");
      }
      charge_.Add(ApproxBatchBytes(in));
      bufs_.push_back(std::move(in));
      if (ctx_->budget.ShouldSpill() && buffered_rows_ >= kMinSpillRows) {
        XQJG_RETURN_NOT_OK(StartSpill());
      }
    }
    if (parts_) return DedupPartitions();
    return Dedup(bufs_, &keep_);
  }

 protected:
  Result<bool> NextImpl(ColumnBatch* out) override {
    if (sorter_) {
      XQJG_ASSIGN_OR_RETURN(bool more, sorter_->Next(out));
      if (more) {
        out->cols.pop_back();  // the sequence column
        out->schema = op_->schema;
      }
      return more;
    }
    while (next_ < bufs_.size()) {
      const size_t i = next_++;
      if (keep_[i].empty()) continue;
      *out = SelectRows(bufs_[i], std::move(keep_[i]), op_->schema);
      return true;
    }
    // Every survivor is out; consumers hold their own references.
    bufs_.clear();
    charge_.Reset();
    return false;
  }

 private:
  struct RowRef {
    uint32_t batch;
    uint32_t phys;
  };

  /// First occurrences survive: (*keep)[i] lists the surviving physical
  /// rows of bufs[i], in order. Distinct treats NULLs as duplicates of
  /// each other (unlike join keys): ValueColumn::EqualAt mirrors
  /// Value::operator==.
  Status Dedup(const std::vector<ColumnBatch>& bufs,
               std::vector<std::vector<uint32_t>>* keep) {
    std::unordered_map<size_t, std::vector<RowRef>> buckets;
    keep->assign(bufs.size(), {});
    for (size_t bi = 0; bi < bufs.size(); ++bi) {
      const ColumnBatch& b = bufs[bi];
      for (size_t r = 0; r < b.num_rows; ++r) {
        XQJG_RETURN_NOT_OK(ctx_->clock.Tick());
        const size_t p = b.PhysRow(r);
        auto& bucket = buckets[HashKeysAt(b, all_, p)];
        const bool dup =
            std::any_of(bucket.begin(), bucket.end(), [&](const RowRef& s) {
              const ColumnBatch& sb = bufs[s.batch];
              for (int c : all_) {
                if (!ValueColumn::EqualAt(*sb.cols[static_cast<size_t>(c)], s.phys,
                                          *b.cols[static_cast<size_t>(c)],
                                          p)) {
                  return false;
                }
              }
              return true;
            });
        if (dup) continue;
        bucket.push_back(
            RowRef{static_cast<uint32_t>(bi), static_cast<uint32_t>(p)});
        (*keep)[bi].push_back(static_cast<uint32_t>(p));
      }
    }
    return Status::OK();
  }

  /// Grace handover: re-route the retained rows to hash partitions.
  Status StartSpill() {
    parts_ = std::make_unique<SpillPartitionSet>(&ctx_->clock, ctx_->stats);
    for (const ColumnBatch& b : bufs_) {
      XQJG_RETURN_NOT_OK(SpillToPartitions(b, all_, false, &seq_,
                                           parts_.get(), &ctx_->clock));
    }
    bufs_.clear();
    charge_.Reset();
    return Status::OK();
  }

  /// Each partition holds every copy of any row it holds at all, so
  /// partitions dedup independently (charged while live).
  Status DedupPartitions() {
    sorter_ = std::make_unique<ExternalSorter>(
        &ctx_->clock, &ctx_->budget, ctx_->stats,
        std::vector<int>{static_cast<int>(arity_)});
    for (size_t p = 0; p < kSpillPartitions; ++p) {
      if (parts_->rows(p) == 0) continue;
      std::vector<ColumnBatch> part;
      MemoryCharge charge(&ctx_->budget);
      for (size_t next = 0;;) {
        ColumnBatch b;
        XQJG_ASSIGN_OR_RETURN(bool more, parts_->Read(p, &next, &b));
        if (!more) break;
        charge.Add(ApproxBatchBytes(b));
        part.push_back(std::move(b));
      }
      std::vector<std::vector<uint32_t>> keep;
      XQJG_RETURN_NOT_OK(Dedup(part, &keep));
      for (size_t i = 0; i < part.size(); ++i) {
        if (keep[i].empty()) continue;
        XQJG_RETURN_NOT_OK(
            sorter_->Add(SelectRows(part[i], std::move(keep[i]), {})));
      }
    }
    parts_.reset();
    return sorter_->Finish();
  }

  MemoryCharge charge_;
  bool primed_ = false;
  size_t arity_ = 0;
  std::vector<int> all_;
  size_t buffered_rows_ = 0;
  std::vector<ColumnBatch> bufs_;
  std::vector<std::vector<uint32_t>> keep_;
  size_t next_ = 0;
  // Grace state.
  std::unique_ptr<SpillPartitionSet> parts_;
  int64_t seq_ = 0;
  std::unique_ptr<ExternalSorter> sorter_;
};

/// Index probes of one kIxScan. Under a nested loop the stream probes
/// once per outer row, one outer window at a time, and emits each match
/// as the outer row's columns beside the scanned alias's π columns,
/// gathered from the doc relation; a leaf is the same over one empty
/// outer row. Per window the probe's comparisons compile with CompileCmp
/// over (doc relation, outer window), so a match is the doc row of its
/// pre rank on the left and the outer row on the right. Matches come out
/// in outer-row order, then index order. The parallel path probes
/// morsels of outer rows and concatenates them in morsel order, so the
/// output is the same at every worker count.
class IndexProbeStream final : public BatchStream {
 public:
  IndexProbeStream(PipelineCtx* ctx, const Op* op, const IndexProbe& probe,
                   const Op* inner, std::unique_ptr<BatchStream> outer)
      : BatchStream(ctx, "index-probe"),
        op_(op),
        probe_(probe),
        inner_(inner),
        outer_(std::move(outer)) {}

  Status Prime() override {
    if (primed_) return Status::OK();
    primed_ = true;
    XQJG_RETURN_NOT_OK(ctx_->clock.CheckDeadline());
    // The doc relation under the scanned alias's names (shared columns).
    const Database& db = *ctx_->db;
    const std::vector<std::string>& cols = algebra::DocColumns();
    doc_.num_rows = static_cast<size_t>(db.row_count());
    for (size_t c = 0; c < cols.size(); ++c) {
      doc_.schema.push_back(AliasColumn(probe_.scan->alias, cols[c]));
      doc_.cols.push_back(db.ColumnPtr(static_cast<int>(c)));
    }
    for (const auto& [name, src] : inner_->proj) {
      (void)name;
      inner_cols_.push_back(db.ColumnPtr(db.ColumnIndex(src)));
    }
    return outer_ ? outer_->Prime() : Status::OK();
  }

 protected:
  Result<bool> NextImpl(ColumnBatch* out) override {
    for (;;) {
      ColumnBatch in;
      if (outer_) {
        XQJG_ASSIGN_OR_RETURN(bool more, outer_->Next(&in));
        if (!more) return false;
      } else {
        if (leaf_done_) return false;
        leaf_done_ = true;
        in.num_rows = 1;  // a leaf probes once, with nothing bound
      }
      std::vector<uint32_t> orows;
      std::vector<uint32_t> pres;
      XQJG_RETURN_NOT_OK(ProbeWindow(in, &orows, &pres));
      if (pres.empty()) continue;  // a matchless window yields nothing
      out->schema = op_->schema;
      out->num_rows = pres.size();
      // One match per row of a dense window (the common shape of a
      // child step under its parent) passes the outer columns through.
      bool one_to_one = !in.sel && orows.size() == in.num_rows;
      for (size_t r = 0; one_to_one && r < orows.size(); ++r) {
        one_to_one = orows[r] == r;
      }
      for (const ColumnRef& col : in.cols) {
        out->cols.push_back(one_to_one ? col
                                       : std::make_shared<const ValueColumn>(
                                             col->Gather(orows)));
      }
      for (const ColumnRef& col : inner_cols_) {
        out->cols.push_back(
            std::make_shared<const ValueColumn>(col->Gather(pres)));
      }
      return true;
    }
  }

 private:
  /// Binds the index range of (physical) outer row `orow` into `range`.
  /// Returns false when a probe value is NULL: NULL never matches, so the
  /// scan is empty.
  bool BindRange(size_t orow, ProbeRange* range) const {
    const SortedIndex& index = probe_.scan->index->sorted;
    // The key term's constant k turns `key + k OP v` into `key OP v - k`.
    auto value = [orow](const CompiledCmp& c) {
      return opt::AdjustProbeValue(c.lhs.constant, TermValue(c.rhs, 0, orow));
    };
    range->Reset();
    for (const CompiledCmp& c : eq_) {
      if (!range->AddEq(index, value(c))) return false;
    }
    for (const CompiledCmp& c : range_) {
      const bool strict = c.op == CmpOp::kLt || c.op == CmpOp::kGt;
      const bool lower = c.op == CmpOp::kGt || c.op == CmpOp::kGe;
      if (!range->AddBound(index, value(c), lower, strict)) return false;
    }
    return true;
  }

  /// Walks the index range of outer row `orow`; appends each match's
  /// outer row and pre rank. `clock` is the caller's clock: the execution
  /// clock, or a morsel's worker clock; `range` is the caller's scratch.
  Status Probe(size_t orow, BudgetClock* clock, ProbeRange* range,
               std::vector<uint32_t>* orows, std::vector<uint32_t>* pres) {
    if (!BindRange(orow, range)) return Status::OK();
    const SortedIndex& index = probe_.scan->index->sorted;
    const auto [first, last] = index.Find(*range);
    const uint32_t* slice = index.pres().data();
    for (size_t i = first; i < last; ++i) {
      const uint32_t pre = slice[i];
      if (std::all_of(filter_.begin(), filter_.end(),
                      [&](const CompiledCmp& c) {
                        return CmpPasses(c, pre, orow);
                      })) {
        orows->push_back(static_cast<uint32_t>(orow));
        pres->push_back(pre);
      }
      if (clock->RowsExceeded(static_cast<int64_t>(pres->size())) ||
          clock->RegionAborted()) {
        return clock->TickRows(static_cast<int64_t>(pres->size()));
      }
      if (clock->TickQuiet() && clock->Expired()) {
        return clock->CheckDeadline();
      }
    }
    return Status::OK();
  }

  Status ProbeWindow(const ColumnBatch& in, std::vector<uint32_t>* orows,
                     std::vector<uint32_t>* pres) {
    if (in.num_rows > kMaxBatchRows) {
      return Status::Internal("probe input exceeds batch row limit");
    }
    auto compile = [&](const std::vector<Comparison>& cmps,
                       std::vector<CompiledCmp>* out) {
      out->clear();
      for (const Comparison& cmp : cmps) {
        out->push_back(CompileCmp(cmp, doc_, in, ctx_->params));
      }
    };
    compile(probe_.filter.conjuncts, &filter_);
    compile(probe_.eq, &eq_);
    compile(probe_.range, &range_);
    const size_t n = in.num_rows;
    if (ctx_->threads > 1 && n >= kParallelProbeCutoff) {
      const size_t morsels = MorselCount(n, kMorselProbeRows);
      std::vector<std::vector<uint32_t>> oparts(morsels);
      std::vector<std::vector<uint32_t>> pparts(morsels);
      RegionBudget budget(ctx_->clock);
      parallel::WorkerPool::Instance().ParallelFor(
          ctx_->threads, morsels, [&](size_t m, int) {
            BudgetClock wclock = budget.Worker();
            ProbeRange range;
            auto run = [&]() -> Status {
              const size_t end = std::min(n, (m + 1) * kMorselProbeRows);
              for (size_t r = m * kMorselProbeRows; r < end; ++r) {
                XQJG_RETURN_NOT_OK(Probe(in.PhysRow(r), &wclock, &range,
                                         &oparts[m], &pparts[m]));
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
      for (size_t m = 0; m < morsels; ++m) {
        orows->insert(orows->end(), oparts[m].begin(), oparts[m].end());
        pres->insert(pres->end(), pparts[m].begin(), pparts[m].end());
      }
    } else {
      ProbeRange range;
      for (size_t r = 0; r < n; ++r) {
        XQJG_RETURN_NOT_OK(
            Probe(in.PhysRow(r), &ctx_->clock, &range, orows, pres));
        XQJG_RETURN_NOT_OK(ctx_->clock.TickRows(
            rows_out_ + static_cast<int64_t>(pres->size())));
      }
    }
    if (pres->size() > kMaxBatchRows) {
      return Status::Internal("probe output exceeds batch row limit");
    }
    return Status::OK();
  }

  const Op* op_;
  const IndexProbe& probe_;
  const Op* inner_;  ///< the π(doc) naming the scanned alias's columns
  std::unique_ptr<BatchStream> outer_;  ///< null for a leaf
  bool primed_ = false;
  bool leaf_done_ = false;
  ColumnBatch doc_;  ///< the doc relation, columns named d<k>.<col>
  std::vector<ColumnRef> inner_cols_;
  /// probe_'s comparisons, compiled for the current outer window.
  std::vector<CompiledCmp> filter_, eq_, range_;
};

// ---------------------------------------------------------------------------
// Pipeline construction. Leaf relations and shared sub-DAGs materialize
// once (memoized, like the old evaluator) and re-stream per consumer;
// single-consumer interior operators become live streams.

class PipelineBuilder {
 public:
  /// `lowered` (nullable) names the ops that run as index probes.
  PipelineBuilder(PipelineCtx* ctx, const LoweredPlan* lowered)
      : ctx_(ctx), lowered_(lowered) {}

  Result<std::unique_ptr<BatchStream>> BuildRoot(const Op* op) {
    CountConsumers(op);
    return Build(op);
  }

 private:
  void CountConsumers(const Op* op) {
    for (const auto& child : op->children) {
      const bool first = consumers_.find(child.get()) == consumers_.end();
      ++consumers_[child.get()];
      if (first) CountConsumers(child.get());
    }
  }

  Result<std::unique_ptr<BatchStream>> Build(const Op* op) {
    if (const IndexProbe* probe = FindProbe(op)) {
      // A hinted π(doc) leaf, or × (outer, π(doc)): the doc side is
      // never built — the probe reads the index and the doc columns.
      std::unique_ptr<BatchStream> outer;
      const Op* inner = op;
      if (op->kind != OpKind::kProject) {
        XQJG_ASSIGN_OR_RETURN(outer, Build(op->children[0].get()));
        inner = op->children[1].get();
      }
      std::unique_ptr<BatchStream> s = std::make_unique<IndexProbeStream>(
          ctx_, op, *probe, inner, std::move(outer));
      return s;
    }
    if (op->kind == OpKind::kDocTable || op->kind == OpKind::kLiteral ||
        consumers_[op] > 1) {
      XQJG_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnBatch> batch,
                            Materialize(op));
      std::unique_ptr<BatchStream> s =
          std::make_unique<SliceStream>(ctx_, std::move(batch));
      return s;
    }
    return BuildOperator(op);
  }

  const IndexProbe* FindProbe(const Op* op) const {
    if (!lowered_) return nullptr;
    auto it = lowered_->probes.find(op);
    return it == lowered_->probes.end() ? nullptr : &it->second;
  }

  /// A stream of type T over `op`'s one child.
  template <typename T>
  Result<std::unique_ptr<BatchStream>> Unary(const Op* op) {
    XQJG_ASSIGN_OR_RETURN(auto child, Build(op->children[0].get()));
    return std::unique_ptr<BatchStream>(
        std::make_unique<T>(ctx_, op, std::move(child)));
  }

  Result<std::unique_ptr<BatchStream>> BuildOperator(const Op* op) {
    switch (op->kind) {
      case OpKind::kDocTable:
      case OpKind::kLiteral:
        // Handled in Build() (always memoized); unreachable here.
        return Status::Internal("leaf operator in BuildOperator");
      case OpKind::kSerialize:
        return Unary<SerializeStream>(op);
      case OpKind::kProject:
        return Unary<ProjectStream>(op);
      case OpKind::kSelect:
        return Unary<FilterStream>(op);
      case OpKind::kJoin:
      case OpKind::kCross: {
        XQJG_ASSIGN_OR_RETURN(auto left, Build(op->children[0].get()));
        XQJG_ASSIGN_OR_RETURN(auto right, Build(op->children[1].get()));
        return std::unique_ptr<BatchStream>(std::make_unique<HashJoinStream>(
            ctx_, op, std::move(left), std::move(right)));
      }
      case OpKind::kDistinct:
        return Unary<DistinctStream>(op);
      case OpKind::kAttach:
        return Unary<AttachStream>(op);
      case OpKind::kRowId:
        return Unary<RowIdStream>(op);
      case OpKind::kRank:
        return Unary<RankStream>(op);
    }
    return Status::Internal("unhandled operator in columnar pipeline");
  }

  /// Evaluates `op` to one memoized batch: leaves build directly, shared
  /// interior nodes drain their own sub-pipeline. Doc relation bytes are
  /// source data (resident regardless of the plan), so only drained
  /// sub-DAGs charge the governor.
  Result<std::shared_ptr<const ColumnBatch>> Materialize(const Op* op) {
    auto it = memo_.find(op);
    if (it != memo_.end()) return it->second;
    XQJG_RETURN_NOT_OK(ctx_->clock.CheckRows(0));
    ColumnBatch batch;
    if (op->kind == OpKind::kDocTable) {
      if (ctx_->db) {
        XQJG_ASSIGN_OR_RETURN(batch, DocRelationView(*ctx_->db, &ctx_->clock));
      } else {
        XQJG_ASSIGN_OR_RETURN(batch,
                              DocRelationBatch(*ctx_->doc, &ctx_->clock));
      }
    } else if (op->kind == OpKind::kLiteral) {
      batch = LiteralBatch(op);
    } else {
      XQJG_ASSIGN_OR_RETURN(std::unique_ptr<BatchStream> stream,
                            BuildOperator(op));
      XQJG_RETURN_NOT_OK(stream->Prime());
      MemoryCharge charge(&ctx_->budget);
      XQJG_ASSIGN_OR_RETURN(
          batch, DrainStreamDense(stream.get(), op->schema, &charge));
      charges_.push_back(std::move(charge));
    }
    if (ctx_->dcheck_batches) {
      XQJG_RETURN_NOT_OK(opt::CheckColumnBatch(
          batch, algebra::OpKindToString(op->kind)));
    }
    XQJG_RETURN_NOT_OK(
        ctx_->clock.CheckRows(static_cast<int64_t>(batch.num_rows)));
    if (ctx_->stats &&
        (op->kind == OpKind::kDocTable || op->kind == OpKind::kLiteral)) {
      // Interior nodes were counted by the streams that drained them.
      ctx_->stats->tuples_materialized +=
          static_cast<int64_t>(batch.num_rows);
    }
    auto ref = std::make_shared<const ColumnBatch>(std::move(batch));
    memo_[op] = ref;
    return ref;
  }

  PipelineCtx* ctx_;
  const LoweredPlan* lowered_;
  std::unordered_map<const Op*, int> consumers_;
  std::unordered_map<const Op*, std::shared_ptr<const ColumnBatch>> memo_;
  /// Outstanding charges for memoized shared sub-DAGs (tracked for the
  /// pipeline's lifetime; released on destruction).
  std::vector<MemoryCharge> charges_;
};

/// Extracts the item column of a serialize output window as int64 pre
/// ranks (exit extraction of rows the pipeline already budget-admitted).
Status AppendItems(const ColumnBatch& b, int item_idx,
                   std::vector<int64_t>* out) {
  const ValueColumn& item = *b.cols[static_cast<size_t>(item_idx)];
  if (item.tag() == ColumnTag::kInt && !item.has_nulls() && !b.sel &&
      item.size() == b.num_rows) {
    out->insert(out->end(), item.ints().begin(), item.ints().end());
    return Status::OK();
  }
  // xqjg-lint: allow(no-budget-guard)
  for (size_t r = 0; r < b.num_rows; ++r) {
    Value v = item.GetValue(b.PhysRow(r));
    if (v.is_null()) {
      return Status::Internal("NULL item in result sequence");
    }
    out->push_back(v.type() == ValueType::kInt
                       ? v.AsInt()
                       : static_cast<int64_t>(v.AsDouble()));
  }
  return Status::OK();
}

/// The live pipeline behind an open cursor: pulls serialize windows on
/// demand and buffers only the current window's items.
class ColumnarSequenceStream final : public SequenceStream {
 public:
  ColumnarSequenceStream(OpPtr plan,
                         std::shared_ptr<const LoweredPlan> lowered,
                         std::unique_ptr<PipelineCtx> ctx,
                         std::unique_ptr<PipelineBuilder> builder,
                         std::unique_ptr<BatchStream> root, int item_idx,
                         int64_t rows_total)
      : plan_(std::move(plan)),
        lowered_(std::move(lowered)),
        ctx_(std::move(ctx)),
        builder_(std::move(builder)),
        root_(std::move(root)),
        item_idx_(item_idx),
        rows_total_(rows_total) {}

  int64_t rows_total() const override { return rows_total_; }

  Status Next(size_t max_rows, std::vector<int64_t>* out) override {
    while (buf_.size() < max_rows && !done_) {
      ColumnBatch b;
      XQJG_ASSIGN_OR_RETURN(bool more, root_->Next(&b));
      if (!more) {
        done_ = true;
        break;
      }
      XQJG_RETURN_NOT_OK(AppendItems(b, item_idx_, &buf_));
      ctx_->SyncPeak();
    }
    const size_t n = std::min(max_rows, buf_.size());
    out->insert(out->end(), buf_.begin(),
                buf_.begin() + static_cast<ptrdiff_t>(n));
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(n));
    return Status::OK();
  }

  int64_t retained_bytes() const override { return ctx_->budget.used(); }

 private:
  algebra::OpPtr plan_;  ///< keeps the Op DAG alive under the streams
  std::shared_ptr<const LoweredPlan> lowered_;  ///< probes (join graphs)
  std::unique_ptr<PipelineCtx> ctx_;
  std::unique_ptr<PipelineBuilder> builder_;  ///< owns memoized batches
  std::unique_ptr<BatchStream> root_;
  int item_idx_;
  int64_t rows_total_;
  std::vector<int64_t> buf_;
  bool done_ = false;
};

}  // namespace

Result<ColumnBatch> EvaluateColumnar(const OpPtr& plan,
                                     const xml::DocTable& doc,
                                     const ExecOptions& options) {
  PipelineCtx ctx(&doc, nullptr, options);
  PipelineBuilder builder(&ctx, nullptr);
  XQJG_ASSIGN_OR_RETURN(std::unique_ptr<BatchStream> root,
                        builder.BuildRoot(plan.get()));
  XQJG_RETURN_NOT_OK(root->Prime());
  XQJG_ASSIGN_OR_RETURN(ColumnBatch out,
                        DrainStreamDense(root.get(), plan->schema, nullptr));
  ctx.SyncPeak();
  if (options.stats) {
    options.stats->rows_out = static_cast<int64_t>(out.num_rows);
  }
  return out;
}

namespace {

Result<std::unique_ptr<SequenceStream>> OpenStream(
    const OpPtr& plan, std::shared_ptr<const LoweredPlan> lowered,
    std::unique_ptr<PipelineCtx> ctx) {
  if (plan->kind != OpKind::kSerialize) {
    return Status::InvalidArgument("expected a serialize-rooted plan");
  }
  auto builder = std::make_unique<PipelineBuilder>(ctx.get(), lowered.get());
  XQJG_ASSIGN_OR_RETURN(std::unique_ptr<BatchStream> root,
                        builder->BuildRoot(plan.get()));
  // Priming runs the pipeline through its final sort breaker: the result
  // cardinality is known here, and everything left for the cursor's pulls
  // is window emission (merge + gather + item extraction).
  XQJG_RETURN_NOT_OK(root->Prime());
  const int item_idx = SchemaIndex(plan->schema, plan->col);
  if (item_idx < 0) return Status::Internal("serialize item column missing");
  ctx->SyncPeak();
  const int64_t total = root->total_rows();
  if (ctx->stats) ctx->stats->rows_out = total;
  std::unique_ptr<SequenceStream> stream =
      std::make_unique<ColumnarSequenceStream>(plan, std::move(lowered),
                                               std::move(ctx),
                                               std::move(builder),
                                               std::move(root), item_idx,
                                               total);
  return stream;
}

}  // namespace

Result<std::unique_ptr<SequenceStream>> OpenSequenceStreamColumnar(
    const OpPtr& plan, const xml::DocTable& doc, const ExecOptions& options) {
  return OpenStream(plan, nullptr,
                    std::make_unique<PipelineCtx>(&doc, nullptr, options));
}

Result<std::unique_ptr<SequenceStream>> OpenSequenceStreamColumnar(
    std::shared_ptr<const LoweredPlan> plan, const Database& db,
    const ExecOptions& options) {
  const OpPtr root = plan->root;
  return OpenStream(root, std::move(plan),
                    std::make_unique<PipelineCtx>(nullptr, &db, options));
}

}  // namespace xqjg::engine::columnar

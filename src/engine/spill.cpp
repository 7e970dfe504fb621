#include "src/engine/spill.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

namespace xqjg::engine {

using columnar::ColumnBatch;
using columnar::ColumnRef;

namespace {

/// Rows per block of a sorted run. A merge holds one block per run, so
/// this (times kMergeFanIn) is what a spilled sort keeps resident.
constexpr size_t kRunBlockRows = 256;

/// Block framing: a header, then per column its ColumnTag byte, a
/// null-mask flag byte, the optional mask (one byte per row), and the
/// payload of that representation.
struct BlockHeader {
  uint64_t bytes;  ///< whole block, header included
  uint32_t rows;
  uint32_t cols;
};

template <typename T>
void Put(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Appends the logical rows of a typed payload vector.
template <typename T>
void PutRows(std::string* out, const std::vector<T>& v,
             const ColumnBatch& b) {
  const size_t n = b.num_rows;
  if (!b.sel) {
    out->append(reinterpret_cast<const char*>(v.data()), n * sizeof(T));
    return;
  }
  const size_t at = out->size();
  out->resize(at + n * sizeof(T));
  char* dst = out->data() + at;
  for (size_t r = 0; r < n; ++r) {
    std::memcpy(dst + r * sizeof(T), &v[(*b.sel)[r]], sizeof(T));
  }
}

Status Truncated() { return Status::Internal("spill: truncated block"); }

/// Orders row `pa` of `a` against row `pb` of `b` on `keys`: negative,
/// zero or positive (ValueColumn::SortLessAt order). NULL-free int64 key
/// pairs, the common case, compare inline.
int CompareKeys(const ColumnBatch& a, size_t pa, const ColumnBatch& b,
                size_t pb, const std::vector<int>& keys) {
  for (int k : keys) {
    const ValueColumn& ca = *a.cols[static_cast<size_t>(k)];
    const ValueColumn& cb = *b.cols[static_cast<size_t>(k)];
    if (ca.tag() == ColumnTag::kInt && cb.tag() == ColumnTag::kInt &&
        !ca.has_nulls() && !cb.has_nulls()) {
      const int64_t x = ca.ints()[pa], y = cb.ints()[pb];
      if (x != y) return x < y ? -1 : 1;
    } else if (ValueColumn::SortLessAt(ca, pa, cb, pb)) {
      return -1;
    } else if (ValueColumn::SortLessAt(cb, pb, ca, pa)) {
      return 1;
    }
  }
  return 0;
}

/// One spill event of `bytes` written, when a stats sink is set.
void NoteSpill(ExecStats* stats, int64_t bytes) {
  if (stats != nullptr) {
    stats->spill_bytes += bytes;
    stats->spill_events += 1;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SpillFile

SpillFile::~SpillFile() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SpillFile::Append(const ColumnBatch& b, BudgetClock* clock) {
  std::string buf;
  const size_t n = b.num_rows;
  Put(&buf, BlockHeader{0, static_cast<uint32_t>(n),
                        static_cast<uint32_t>(b.cols.size())});
  for (const ColumnRef& ref : b.cols) {
    const ValueColumn& col = *ref;
    Put(&buf, static_cast<uint8_t>(col.tag()));
    Put(&buf, static_cast<uint8_t>(col.has_nulls()));
    if (col.has_nulls()) {
      for (size_t r = 0; r < n; ++r) Put(&buf, col.null_mask()[b.PhysRow(r)]);
    }
    switch (col.tag()) {
      case ColumnTag::kInt:
        PutRows(&buf, col.ints(), b);
        break;
      case ColumnTag::kDouble:
        PutRows(&buf, col.doubles(), b);
        break;
      case ColumnTag::kString: {
        // Lengths first, then the bytes of the whole block in one piece.
        std::string bytes;
        for (size_t r = 0; r < n; ++r) {
          const std::string& s = col.strings()[b.PhysRow(r)];
          Put(&buf, static_cast<uint32_t>(s.size()));
          bytes += s;
          XQJG_RETURN_NOT_OK(clock->Tick());
        }
        buf += bytes;
        break;
      }
      case ColumnTag::kDictString: {
        const std::shared_ptr<const StringDict> dict = col.dict_ptr();
        auto it = std::find(dicts_.begin(), dicts_.end(), dict);
        if (it == dicts_.end()) it = dicts_.insert(dicts_.end(), dict);
        Put(&buf, static_cast<uint32_t>(it - dicts_.begin()));
        PutRows(&buf, col.dict_codes(), b);
        break;
      }
      case ColumnTag::kMixed:
        for (size_t r = 0; r < n; ++r) {
          const Value v = col.GetValue(b.PhysRow(r));
          Put(&buf, static_cast<uint8_t>(v.type()));
          if (v.type() == ValueType::kInt) Put(&buf, v.AsInt());
          if (v.type() == ValueType::kDouble) Put(&buf, v.AsDouble());
          if (v.type() == ValueType::kString) {
            Put(&buf, static_cast<uint32_t>(v.AsString().size()));
            buf += v.AsString();
          }
          XQJG_RETURN_NOT_OK(clock->Tick());
        }
        break;
    }
  }
  const uint64_t bytes = buf.size();
  std::memcpy(buf.data(), &bytes, sizeof(bytes));
  if (file_ == nullptr) {
    // tmpfile() is created unlinked: the OS reclaims the space when the
    // FILE closes, whatever else happens to the process.
    file_ = std::tmpfile();
    if (file_ == nullptr) {
      return Status::Internal("spill: cannot create temporary file");
    }
  }
  // Positional I/O on the descriptor: blocks of different runs are read
  // while new ones are appended, with no shared stream position.
  const int fd = fileno(file_);
  for (size_t done = 0; done < buf.size();) {
    const ssize_t w = ::pwrite(fd, buf.data() + done, buf.size() - done,
                               static_cast<off_t>(size_ + done));
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return Status::Internal("spill: short write (disk full?)");
    done += static_cast<size_t>(w);
  }
  size_ += static_cast<int64_t>(buf.size());
  return Status::OK();
}

Status SpillFile::Read(int64_t* offset, ColumnBatch* out, BudgetClock* clock) {
  auto read_at = [&](void* dst, size_t n, int64_t at) -> Status {
    for (size_t done = 0; done < n;) {
      const ssize_t r = ::pread(fileno(file_), static_cast<char*>(dst) + done,
                                n - done, static_cast<off_t>(at + done));
      if (r < 0 && errno == EINTR) continue;
      if (r < 0) return Status::Internal("spill: read failed");
      if (r == 0) return Truncated();
      done += static_cast<size_t>(r);
    }
    return Status::OK();
  };
  if (file_ == nullptr || *offset >= size_) return Truncated();
  BlockHeader h;
  XQJG_RETURN_NOT_OK(read_at(&h, sizeof(h), *offset));
  if (h.bytes < sizeof(h) || h.bytes > static_cast<uint64_t>(size_ - *offset)) {
    return Truncated();
  }
  std::string buf(h.bytes - sizeof(h), '\0');
  XQJG_RETURN_NOT_OK(
      read_at(buf.data(), buf.size(), *offset + static_cast<int64_t>(sizeof(h))));
  *offset += static_cast<int64_t>(h.bytes);

  // Bounds-checked reads from the block's bytes.
  const char* at = buf.data();
  const char* const end = buf.data() + buf.size();
  auto take = [&](void* dst, size_t bytes) {
    if (static_cast<size_t>(end - at) < bytes) return false;
    std::memcpy(dst, at, bytes);
    at += bytes;
    return true;
  };
  auto take_vec = [&](auto* v, size_t rows) {
    v->resize(rows);
    return take(v->data(), rows * sizeof((*v)[0]));
  };
  const size_t n = h.rows;
  *out = ColumnBatch{};
  out->num_rows = n;
  for (uint32_t c = 0; c < h.cols; ++c) {
    uint8_t tag = 0, has_nulls = 0;
    if (!take(&tag, 1) || !take(&has_nulls, 1)) return Truncated();
    std::vector<uint8_t> mask;
    if (has_nulls != 0 && !take_vec(&mask, n)) return Truncated();
    ValueColumn col;
    switch (tag) {
      case static_cast<uint8_t>(ColumnTag::kInt): {
        std::vector<int64_t> v;
        if (!take_vec(&v, n)) return Truncated();
        col = ValueColumn::Ints(std::move(v), std::move(mask));
        break;
      }
      case static_cast<uint8_t>(ColumnTag::kDouble): {
        std::vector<double> v;
        if (!take_vec(&v, n)) return Truncated();
        col = ValueColumn::Doubles(std::move(v), std::move(mask));
        break;
      }
      case static_cast<uint8_t>(ColumnTag::kString): {
        std::vector<uint32_t> lens;
        if (!take_vec(&lens, n)) return Truncated();
        std::vector<std::string> v(n);
        for (size_t r = 0; r < n; ++r) {
          v[r].resize(lens[r]);
          if (!take(v[r].data(), lens[r])) return Truncated();
          XQJG_RETURN_NOT_OK(clock->Tick());
        }
        col = ValueColumn::Strings(std::move(v), std::move(mask));
        break;
      }
      case static_cast<uint8_t>(ColumnTag::kDictString): {
        uint32_t dict = 0;
        std::vector<uint32_t> codes;
        if (!take(&dict, sizeof(dict)) || dict >= dicts_.size() ||
            !take_vec(&codes, n)) {
          return Truncated();
        }
        col = ValueColumn::DictCodes(dicts_[dict], std::move(codes),
                                     std::move(mask));
        break;
      }
      case static_cast<uint8_t>(ColumnTag::kMixed):
        for (size_t r = 0; r < n; ++r) {
          uint8_t type = 0;
          if (!take(&type, 1)) return Truncated();
          Value v;
          if (type == static_cast<uint8_t>(ValueType::kInt)) {
            int64_t x = 0;
            if (!take(&x, sizeof(x))) return Truncated();
            v = Value::Int(x);
          } else if (type == static_cast<uint8_t>(ValueType::kDouble)) {
            double x = 0;
            if (!take(&x, sizeof(x))) return Truncated();
            v = Value::Double(x);
          } else if (type == static_cast<uint8_t>(ValueType::kString)) {
            uint32_t len = 0;
            if (!take(&len, sizeof(len))) return Truncated();
            std::string s(len, '\0');
            if (!take(s.data(), len)) return Truncated();
            v = Value::String(std::move(s));
          }
          col.Append(v);
          XQJG_RETURN_NOT_OK(clock->Tick());
        }
        break;
      default:
        return Status::Internal("spill: unknown column tag");
    }
    out->cols.push_back(std::make_shared<const ValueColumn>(std::move(col)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ExternalSorter

/// k-way merge of consecutive runs through a binary min-heap of run heads:
/// one decoded block per run, charged while held. Equal rows pop from the
/// earliest run, which keeps the merge stable.
class ExternalSorter::Merge {
 public:
  Merge(ExternalSorter* sorter, const Run* runs, size_t n)
      : s_(sorter), charge_(sorter->budget_) {
    for (size_t i = 0; i < n; ++i) {
      heads_.push_back(Head{runs[i].begin, runs[i].end, nullptr, 0, 0});
    }
  }

  Status Open() {
    for (uint32_t i = 0; i < heads_.size(); ++i) {
      XQJG_RETURN_NOT_OK(Load(&heads_[i]));
      if (heads_[i].block->num_rows > 0) heap_.push_back(i);
    }
    for (size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i);
    return Status::OK();
  }

  /// Merges up to `max_rows` rows into a new dense batch.
  Result<bool> Next(size_t max_rows, ColumnBatch* out) {
    XQJG_RETURN_NOT_OK(s_->clock_->CheckDeadline());
    if (heap_.empty()) return false;
    columnar::RowRefs refs;
    // Blocks the window has finished stay alive until it is gathered.
    std::vector<std::shared_ptr<const ColumnBatch>> done;
    while (refs.size() < max_rows && !heap_.empty()) {
      Head& h = heads_[heap_.front()];
      refs.emplace_back(h.block.get(), static_cast<uint32_t>(h.pos));
      if (++h.pos == h.block->num_rows) {
        done.push_back(h.block);
        XQJG_RETURN_NOT_OK(Load(&h));
      }
      if (h.pos == h.block->num_rows) {  // the run is exhausted
        heap_.front() = heap_.back();
        heap_.pop_back();
      }
      if (!heap_.empty()) SiftDown(0);
      XQJG_RETURN_NOT_OK(s_->clock_->Tick());
    }
    *out = columnar::GatherRows(refs);
    return true;
  }

 private:
  struct Head {
    int64_t next;  ///< offset of the run's next unread block
    int64_t end;
    std::shared_ptr<const ColumnBatch> block;
    size_t pos = 0;
    int64_t charged = 0;  ///< block bytes held in charge_
  };

  /// Replaces h's block by the run's next one (empty at the run's end).
  Status Load(Head* h) {
    ColumnBatch block;
    if (h->next < h->end) {
      XQJG_RETURN_NOT_OK(s_->file_.Read(&h->next, &block, s_->clock_));
    }
    const int64_t bytes =
        block.num_rows > 0 ? columnar::ApproxBatchBytes(block) : 0;
    h->block = std::make_shared<const ColumnBatch>(std::move(block));
    h->pos = 0;
    charge_.Set(charge_.bytes() - h->charged + bytes);
    h->charged = bytes;
    return Status::OK();
  }

  /// True when head a's row comes first: key order, then the earlier run.
  bool Before(uint32_t a, uint32_t b) const {
    const int c = CompareKeys(*heads_[a].block, heads_[a].pos,
                              *heads_[b].block, heads_[b].pos, s_->keys_);
    return c < 0 || (c == 0 && a < b);
  }

  /// Restores the min-heap (under Before) below heap_[i]. Replacing the
  /// top and sifting it down costs one pass per merged row.
  void SiftDown(size_t i) {
    for (;;) {
      size_t c = 2 * i + 1;
      if (c >= heap_.size()) return;
      if (c + 1 < heap_.size() && Before(heap_[c + 1], heap_[c])) ++c;
      if (!Before(heap_[c], heap_[i])) return;
      std::swap(heap_[c], heap_[i]);
      i = c;
    }
  }

  ExternalSorter* s_;
  std::vector<Head> heads_;
  std::vector<uint32_t> heap_;
  MemoryCharge charge_;
};

ExternalSorter::ExternalSorter(BudgetClock* clock, MemoryBudget* budget,
                               ExecStats* stats, std::vector<int> keys)
    : clock_(clock),
      budget_(budget),
      stats_(stats),
      keys_(std::move(keys)),
      charge_(budget) {}

ExternalSorter::~ExternalSorter() = default;

Status ExternalSorter::Add(ColumnBatch batch) {
  if (batch.num_rows == 0) return Status::OK();
  buffered_rows_ += batch.num_rows;
  total_rows_ += static_cast<int64_t>(batch.num_rows);
  if (buffered_rows_ > std::numeric_limits<uint32_t>::max()) {
    return Status::Internal("sort input exceeds batch row limit");
  }
  charge_.Add(columnar::ApproxBatchBytes(batch));
  bufs_.push_back(std::move(batch));
  if (budget_->ShouldSpill() && buffered_rows_ >= kMinSpillRows) {
    return FlushRun();
  }
  return Status::OK();
}

Status ExternalSorter::Finish() {
  if (runs_.empty()) return SortBuffer();
  if (!bufs_.empty()) XQJG_RETURN_NOT_OK(FlushRun());
  while (runs_.size() > kMergeFanIn) XQJG_RETURN_NOT_OK(MergePass());
  merge_ = std::make_unique<Merge>(this, runs_.data(), runs_.size());
  return merge_->Open();
}

Result<bool> ExternalSorter::Next(ColumnBatch* out) {
  if (merge_) return merge_->Next(columnar::kStreamRows, out);
  if (next_ >= perm_.size()) return false;
  const size_t end = std::min(perm_.size(), next_ + columnar::kStreamRows);
  *out = Gather(next_, end);
  next_ = end;
  return true;
}

bool ExternalSorter::RefLess(const RowRef& a, const RowRef& b) const {
  const ColumnBatch& ba = bufs_[a.batch];
  const ColumnBatch& bb = bufs_[b.batch];
  return CompareKeys(ba, ba.PhysRow(a.row), bb, bb.PhysRow(b.row), keys_) < 0;
}

Status ExternalSorter::SortBuffer() {
  // The initial permutation is arrival order, so the stable sort keeps
  // arrival order among rows equal on every key.
  perm_.clear();
  perm_.reserve(buffered_rows_);
  for (size_t bi = 0; bi < bufs_.size(); ++bi) {
    for (size_t r = 0; r < bufs_[bi].num_rows; ++r) {
      perm_.push_back(
          RowRef{static_cast<uint32_t>(bi), static_cast<uint32_t>(r)});
    }
    XQJG_RETURN_NOT_OK(clock_->Tick());
  }
  auto less = [&](const RowRef& a, const RowRef& b) {
    clock_->TickThrow();
    return RefLess(a, b);
  };
  try {
    // Input that arrives in key order (the partition-ordered outputs that
    // the Grace join and δ restore) costs one pass instead of a sort.
    if (!std::is_sorted(perm_.begin(), perm_.end(), less)) {
      std::stable_sort(perm_.begin(), perm_.end(), less);
    }
  } catch (const BudgetExhausted&) {
    return Status::Timeout("execution exceeded wall-clock budget (DNF)");
  }
  return Status::OK();
}

ColumnBatch ExternalSorter::Gather(size_t begin, size_t end) const {
  columnar::RowRefs refs;
  refs.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    const ColumnBatch& b = bufs_[perm_[i].batch];
    refs.emplace_back(&b, static_cast<uint32_t>(b.PhysRow(perm_[i].row)));
  }
  return columnar::GatherRows(refs);
}

Status ExternalSorter::FlushRun() {
  XQJG_RETURN_NOT_OK(SortBuffer());
  // A buffer whose first row does not sort before the last run's last row
  // extends that run: the run is still a stable sort of a consecutive
  // input range, so input that arrives in key order (the partition outputs
  // that the Grace join and δ restore) stays one run per partition.
  const ColumnBatch& first = bufs_[perm_[0].batch];
  const bool extend =
      !runs_.empty() && CompareKeys(last_row_, 0, first,
                                    first.PhysRow(perm_[0].row), keys_) <= 0;
  const int64_t begin = file_.size();
  for (size_t i = 0; i < perm_.size(); i += kRunBlockRows) {
    XQJG_RETURN_NOT_OK(file_.Append(
        Gather(i, std::min(perm_.size(), i + kRunBlockRows)), clock_));
  }
  if (extend) {
    runs_.back().end = file_.size();
  } else {
    runs_.push_back({begin, file_.size()});
  }
  last_row_ = Gather(perm_.size() - 1, perm_.size());
  NoteSpill(stats_, file_.size() - begin);
  bufs_.clear();
  perm_.clear();
  buffered_rows_ = 0;
  charge_.Reset();
  return Status::OK();
}

Status ExternalSorter::MergePass() {
  // Groups of consecutive runs merge into one run each, so the new runs
  // are still consecutive input ranges in input order.
  std::vector<Run> merged;
  for (size_t i = 0; i < runs_.size(); i += kMergeFanIn) {
    const size_t n = std::min(kMergeFanIn, runs_.size() - i);
    if (n == 1) {
      merged.push_back(runs_[i]);
      continue;
    }
    Merge merge(this, &runs_[i], n);
    XQJG_RETURN_NOT_OK(merge.Open());
    const int64_t begin = file_.size();
    for (;;) {
      ColumnBatch block;
      XQJG_ASSIGN_OR_RETURN(bool more, merge.Next(kRunBlockRows, &block));
      if (!more) break;
      XQJG_RETURN_NOT_OK(file_.Append(block, clock_));
    }
    merged.push_back({begin, file_.size()});
    NoteSpill(stats_, file_.size() - begin);
  }
  runs_ = std::move(merged);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SpillPartitionSet

Status SpillPartitionSet::Append(const ColumnBatch& batch,
                                 const std::vector<uint8_t>& part) {
  std::vector<uint32_t> sel[kSpillPartitions];
  for (size_t r = 0; r < batch.num_rows; ++r) {
    if (part[r] < kSpillPartitions) {
      sel[part[r]].push_back(static_cast<uint32_t>(batch.PhysRow(r)));
    }
    XQJG_RETURN_NOT_OK(clock_->Tick());
  }
  const int64_t before = file_.size();
  for (size_t p = 0; p < kSpillPartitions; ++p) {
    if (sel[p].empty()) continue;
    ColumnBatch view;
    view.cols = batch.cols;
    view.num_rows = sel[p].size();
    view.sel = std::make_shared<const std::vector<uint32_t>>(std::move(sel[p]));
    parts_[p].blocks.push_back(file_.size());
    parts_[p].rows += static_cast<int64_t>(view.num_rows);
    XQJG_RETURN_NOT_OK(file_.Append(view, clock_));
  }
  if (file_.size() > before) NoteSpill(stats_, file_.size() - before);
  return Status::OK();
}

Result<bool> SpillPartitionSet::Read(size_t p, size_t* next,
                                     ColumnBatch* out) {
  const std::vector<int64_t>& blocks = parts_[p].blocks;
  if (*next >= blocks.size()) return false;
  int64_t offset = blocks[(*next)++];
  XQJG_RETURN_NOT_OK(file_.Read(&offset, out, clock_));
  return true;
}

}  // namespace xqjg::engine

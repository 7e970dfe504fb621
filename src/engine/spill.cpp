#include "src/engine/spill.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

namespace xqjg::engine {

namespace {

// Value framing tags. One byte per value, then a fixed or
// length-prefixed payload.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

}  // namespace

SpillFile& SpillFile::operator=(SpillFile&& other) noexcept {
  if (this != &other) {
    Close();
    file_ = other.file_;
    bytes_ = other.bytes_;
    rows_ = other.rows_;
    other.file_ = nullptr;
    other.bytes_ = 0;
    other.rows_ = 0;
  }
  return *this;
}

void SpillFile::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status SpillFile::Append(const void* data, size_t n) {
  if (file_ == nullptr) {
    // tmpfile() is created unlinked: the OS reclaims the space when the
    // FILE closes, whatever else happens to the process.
    file_ = std::tmpfile();
    if (file_ == nullptr) {
      return Status::Internal("spill: cannot create temporary file");
    }
  }
  if (n > 0 && std::fwrite(data, 1, n, file_) != n) {
    return Status::Internal("spill: short write (disk full?)");
  }
  bytes_ += static_cast<int64_t>(n);
  return Status::OK();
}

Status SpillFile::Rewind() {
  if (file_ == nullptr) return Status::OK();  // empty file: reads see EOF
  if (std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    return Status::Internal("spill: rewind failed");
  }
  return Status::OK();
}

Result<size_t> SpillFile::Read(void* out, size_t n) {
  if (file_ == nullptr || n == 0) return static_cast<size_t>(0);
  const size_t got = std::fread(out, 1, n, file_);
  if (got < n && std::ferror(file_) != 0) {
    return Status::Internal("spill: read failed");
  }
  return got;
}

Status SpillAppendRow(SpillFile* file, const Value* row, size_t arity) {
  // One buffered fwrite per row keeps the syscall count low without a
  // second buffering layer on top of stdio's.
  std::string buf;
  for (size_t i = 0; i < arity; ++i) {
    const Value& v = row[i];
    switch (v.type()) {
      case ValueType::kNull:
        buf.push_back(static_cast<char>(kTagNull));
        break;
      case ValueType::kInt: {
        buf.push_back(static_cast<char>(kTagInt));
        const int64_t x = v.AsInt();
        buf.append(reinterpret_cast<const char*>(&x), sizeof(x));
        break;
      }
      case ValueType::kDouble: {
        buf.push_back(static_cast<char>(kTagDouble));
        const double x = v.AsDouble();
        buf.append(reinterpret_cast<const char*>(&x), sizeof(x));
        break;
      }
      case ValueType::kString: {
        buf.push_back(static_cast<char>(kTagString));
        const std::string& s = v.AsString();
        const uint32_t len = static_cast<uint32_t>(s.size());
        buf.append(reinterpret_cast<const char*>(&len), sizeof(len));
        buf.append(s);
        break;
      }
    }
  }
  XQJG_RETURN_NOT_OK(file->Append(buf.data(), buf.size()));
  ++file->rows_;
  return Status::OK();
}

Result<bool> SpillReadRow(SpillFile* file, Value* row, size_t arity) {
  for (size_t i = 0; i < arity; ++i) {
    uint8_t tag = 0;
    XQJG_ASSIGN_OR_RETURN(size_t got, file->Read(&tag, 1));
    if (got == 0) {
      if (i == 0) return false;  // clean end-of-file between rows
      return Status::Internal("spill: truncated row");
    }
    switch (tag) {
      case kTagNull:
        row[i] = Value::Null();
        break;
      case kTagInt: {
        int64_t x = 0;
        XQJG_ASSIGN_OR_RETURN(got, file->Read(&x, sizeof(x)));
        if (got != sizeof(x)) return Status::Internal("spill: truncated int");
        row[i] = Value::Int(x);
        break;
      }
      case kTagDouble: {
        double x = 0;
        XQJG_ASSIGN_OR_RETURN(got, file->Read(&x, sizeof(x)));
        if (got != sizeof(x)) {
          return Status::Internal("spill: truncated double");
        }
        row[i] = Value::Double(x);
        break;
      }
      case kTagString: {
        uint32_t len = 0;
        XQJG_ASSIGN_OR_RETURN(got, file->Read(&len, sizeof(len)));
        if (got != sizeof(len)) {
          return Status::Internal("spill: truncated string length");
        }
        std::string s(len, '\0');
        XQJG_ASSIGN_OR_RETURN(got, file->Read(s.data(), len));
        if (got != len) return Status::Internal("spill: truncated string");
        row[i] = Value::String(std::move(s));
        break;
      }
      default:
        return Status::Internal("spill: unknown value tag");
    }
  }
  return true;
}

int64_t ValueRowBytes(const Value* row, size_t arity) {
  int64_t bytes = 0;
  for (size_t i = 0; i < arity; ++i) {
    bytes += static_cast<int64_t>(sizeof(Value));
    if (row[i].type() == ValueType::kString) {
      bytes += static_cast<int64_t>(row[i].AsString().size());
    }
  }
  return bytes;
}

Status ExternalValueSorter::Add(std::vector<Value> row) {
  charge_.Add(ValueRowBytes(row.data(), arity_) +
              static_cast<int64_t>(sizeof(std::vector<Value>)));
  buf_.push_back(std::move(row));
  ++total_rows_;
  if (budget_->ShouldSpill() && buf_.size() >= kMinSpillRows) {
    XQJG_RETURN_NOT_OK(FlushRun());
  }
  return Status::OK();
}

Status ExternalValueSorter::Finish() {
  if (runs_.empty()) return SortBuf();
  if (!buf_.empty()) XQJG_RETURN_NOT_OK(FlushRun());
  cursors_.resize(runs_.size());
  for (size_t i = 0; i < runs_.size(); ++i) {
    XQJG_RETURN_NOT_OK(runs_[i].Rewind());
    cursors_[i].row.resize(arity_);
    XQJG_ASSIGN_OR_RETURN(
        cursors_[i].live,
        SpillReadRow(&runs_[i], cursors_[i].row.data(), arity_));
    if (cursors_[i].live) heap_.push_back(static_cast<uint32_t>(i));
    // The merge state — one head row per run — is what an open cursor
    // over a spilled sort retains.
    charge_.Add(ValueRowBytes(cursors_[i].row.data(), arity_) +
                static_cast<int64_t>(sizeof(RunCursor)));
  }
  std::make_heap(heap_.begin(), heap_.end(),
                 [this](uint32_t a, uint32_t b) { return HeapAfter(a, b); });
  return Status::OK();
}

Result<bool> ExternalValueSorter::Next(std::vector<Value>* row) {
  if (runs_.empty()) {
    if (pos_ >= buf_.size()) return false;
    *row = std::move(buf_[pos_++]);
    return true;
  }
  // K-way merge through a min-heap of run heads: O(log runs) per row,
  // so a tiny budget (thousands of runs) does not turn the merge
  // quadratic. Equal rows pop from the earliest run — the stable-sort
  // order.
  if (heap_.empty()) return false;
  auto after = [this](uint32_t a, uint32_t b) { return HeapAfter(a, b); };
  std::pop_heap(heap_.begin(), heap_.end(), after);
  const uint32_t b = heap_.back();
  RunCursor& cursor = cursors_[b];
  row->swap(cursor.row);
  cursor.row.resize(arity_);
  XQJG_ASSIGN_OR_RETURN(cursor.live,
                        SpillReadRow(&runs_[b], cursor.row.data(), arity_));
  if (cursor.live) {
    std::push_heap(heap_.begin(), heap_.end(), after);
  } else {
    heap_.pop_back();
  }
  XQJG_RETURN_NOT_OK(clock_->Tick());
  return true;
}

bool ExternalValueSorter::HeapAfter(uint32_t a, uint32_t b) const {
  const std::vector<Value>& ra = cursors_[a].row;
  const std::vector<Value>& rb = cursors_[b].row;
  if (RowLess(rb, ra)) return true;
  if (RowLess(ra, rb)) return false;
  return b < a;
}

bool ExternalValueSorter::RowLess(const std::vector<Value>& a,
                                  const std::vector<Value>& b) const {
  for (int k : keys_) {
    const Value& av = a[static_cast<size_t>(k)];
    const Value& bv = b[static_cast<size_t>(k)];
    if (av.SortLess(bv)) return true;
    if (bv.SortLess(av)) return false;
  }
  return false;
}

Status ExternalValueSorter::SortBuf() {
  try {
    std::stable_sort(
        buf_.begin() + static_cast<ptrdiff_t>(pos_), buf_.end(),
        [&](const std::vector<Value>& a, const std::vector<Value>& b) {
          clock_->TickThrow();
          return RowLess(a, b);
        });
  } catch (const BudgetExhausted&) {
    return Status::Timeout("execution exceeded wall-clock budget (DNF)");
  }
  return Status::OK();
}

Status ExternalValueSorter::FlushRun() {
  XQJG_RETURN_NOT_OK(SortBuf());
  SpillFile run;
  for (const auto& row : buf_) {
    XQJG_RETURN_NOT_OK(SpillAppendRow(&run, row.data(), arity_));
  }
  if (stats_ != nullptr) {
    stats_->spill_bytes += run.bytes_written();
    stats_->spill_events += 1;
  }
  runs_.push_back(std::move(run));
  buf_.clear();
  charge_.Reset();
  return Status::OK();
}

}  // namespace xqjg::engine

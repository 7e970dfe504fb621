#include "src/engine/sorted_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace xqjg::engine {

namespace {

constexpr uint64_t kSign = uint64_t{1} << 63;

uint64_t NormInt(int64_t v) { return static_cast<uint64_t>(v) ^ kSign; }

uint64_t NormDouble(double v) {
  if (v == 0) v = 0.0;  // -0.0 and 0.0 are equal under SortLess
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return (bits & kSign) ? ~bits : bits | kSign;
}

}  // namespace

Result<std::shared_ptr<const KeyColumn>> KeyColumn::Make(
    std::shared_ptr<const ValueColumn> col) {
  if (col->tag() == ColumnTag::kString || col->tag() == ColumnTag::kMixed) {
    return Status::InvalidArgument(
        "index key column has no typed representation");
  }
  auto out = std::make_shared<KeyColumn>();
  if (col->tag() == ColumnTag::kDictString) {
    const auto& dict = col->dict().strings;
    out->by_rank_.resize(dict.size());
    std::iota(out->by_rank_.begin(), out->by_rank_.end(), 0);
    std::sort(out->by_rank_.begin(), out->by_rank_.end(),
              [&](uint32_t a, uint32_t b) { return dict[a] < dict[b]; });
    out->rank_.resize(dict.size());
    for (uint32_t r = 0; r < out->by_rank_.size(); ++r) {
      out->rank_[out->by_rank_[r]] = r;
    }
  }
  out->col_ = std::move(col);
  return std::shared_ptr<const KeyColumn>(std::move(out));
}

uint64_t KeyColumn::Norm(size_t row) const {
  switch (col_->tag()) {
    case ColumnTag::kInt:
      return NormInt(col_->ints()[row]);
    case ColumnTag::kDouble:
      return NormDouble(col_->doubles()[row]);
    default:
      return rank_[col_->dict_codes()[row]];
  }
}

bool KeyColumn::Locate(const Value& v, KeyPos* pos) const {
  const bool numeric = col_->tag() != ColumnTag::kDictString;
  if (v.IsNumeric() != numeric) {  // numbers sort before strings
    *pos = numeric ? KeyPos{UINT64_MAX, 1} : KeyPos{0, -1};
    return true;
  }
  if (col_->tag() == ColumnTag::kInt && v.type() == ValueType::kInt) {
    *pos = {NormInt(v.AsInt()), 0};
    return true;
  }
  if (numeric) {
    const double d = v.AsDouble();
    if (std::isnan(d)) return false;
    if (col_->tag() == ColumnTag::kDouble) {
      *pos = {NormDouble(d), 0};
      return true;
    }
    // An int cell compares with a double as a double: exact for cells
    // below 2^53 in magnitude, where each int has its own double.
    constexpr double kTwo63 = 9223372036854775808.0;
    const double f = std::floor(d);
    *pos = d >= kTwo63    ? KeyPos{UINT64_MAX, 1}
           : f < -kTwo63 ? KeyPos{0, -1}
                         : KeyPos{NormInt(static_cast<int64_t>(f)), f < d};
    return true;
  }
  const int64_t code = col_->DictCode(v.AsString());
  if (code >= 0) {
    *pos = {rank_[static_cast<size_t>(code)], 0};
    return true;
  }
  // Not in the dictionary: just below the first rank after it.
  const auto& dict = col_->dict().strings;
  const auto it = std::lower_bound(
      by_rank_.begin(), by_rank_.end(), v.AsString(),
      [&](uint32_t c, const std::string& s) { return dict[c] < s; });
  *pos = {static_cast<uint64_t>(it - by_rank_.begin()), -1};
  return true;
}

int64_t KeyColumn::ApproxBytes() const {
  return static_cast<int64_t>((rank_.capacity() + by_rank_.capacity()) *
                              sizeof(uint32_t));
}

bool ProbeRange::AddEq(const SortedIndex& index, const Value& v) {
  if (v.is_null()) return false;
  if (open_ || eq_.size() >= index.num_keys()) return true;
  KeyPos pos;
  open_ = !index.key(eq_.size()).Locate(v, &pos);
  if (!open_) eq_.push_back(pos);
  return true;
}

bool ProbeRange::AddBound(const SortedIndex& index, const Value& v,
                          bool lower, bool strict) {
  if (v.is_null()) return false;
  KeyPos pos;
  if (open_ || eq_.size() >= index.num_keys() ||
      !index.key(eq_.size()).Locate(v, &pos)) {
    return true;
  }
  Side& side = lower ? lo_ : hi_;
  if (!side.set || (lower ? side.pos < pos : pos < side.pos) ||
      (strict && pos == side.pos)) {
    side = {true, strict, pos};
  }
  return true;
}

std::pair<size_t, size_t> SortedIndex::Find(const ProbeRange& range) const {
  // Lexicographic compare of row `pre` with the equalities, then (if set)
  // the next key column with one side's bound.
  auto compare = [&](uint32_t pre, const ProbeRange::Side& side) {
    for (size_t i = 0; i < range.eq_.size(); ++i) {
      const int c = keys_[i]->CompareAt(pre, range.eq_[i]);
      if (c != 0) return c;
    }
    return side.set ? keys_[range.eq_.size()]->CompareAt(pre, side.pos) : 0;
  };
  const std::vector<uint32_t>& pres = *pres_;
  const auto first =
      std::partition_point(pres.begin(), pres.end(), [&](uint32_t pre) {
        const int c = compare(pre, range.lo_);
        return c < 0 || (c == 0 && range.lo_.strict);
      });
  const auto last = std::partition_point(first, pres.end(), [&](uint32_t pre) {
    const int c = compare(pre, range.hi_);
    return c < 0 || (c == 0 && !range.hi_.strict);
  });
  return {static_cast<size_t>(first - pres.begin()),
          static_cast<size_t>(last - pres.begin())};
}

namespace {

/// One stable counting-sort pass of `perm` per byte of `vals` that not
/// every row shares, least significant first (DDL time).
void RadixPasses(const std::vector<uint64_t>& vals,
                 std::vector<uint32_t>* perm, std::vector<uint32_t>* tmp) {
  uint64_t any = 0, all = ~uint64_t{0};
  for (uint64_t v : vals) {
    any |= v;
    all &= v;
  }
  for (int shift = 0; shift < 64; shift += 8) {
    if ((((any ^ all) >> shift) & 0xFF) == 0) continue;
    size_t start[257] = {};
    for (uint32_t p : *perm) ++start[((vals[p] >> shift) & 0xFF) + 1];
    for (size_t b = 1; b < 257; ++b) start[b] += start[b - 1];
    for (uint32_t p : *perm) (*tmp)[start[(vals[p] >> shift) & 0xFF]++] = p;
    perm->swap(*tmp);
  }
}

}  // namespace

std::vector<uint32_t> SortedIndex::SortPres(
    const std::vector<const KeyColumn*>& keys, size_t rows) {
  std::vector<uint32_t> perm(rows), tmp(rows);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<uint64_t> vals(keys.empty() ? 0 : rows);
  // Index build (DDL time), not query execution. Least significant column
  // first; a column's NULL flag sorts above its keys, so NULLs come first.
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    const KeyColumn& key = **it;
    for (size_t r = 0; r < rows; ++r) {
      vals[r] = key.IsNull(r) ? 0 : key.Norm(r);
    }
    RadixPasses(vals, &perm, &tmp);
    if (!key.column().has_nulls()) continue;
    for (size_t r = 0; r < rows; ++r) vals[r] = key.IsNull(r) ? 0 : 1;
    RadixPasses(vals, &perm, &tmp);
  }
  return perm;
}

}  // namespace xqjg::engine

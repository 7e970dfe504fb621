#include "src/common/value_column.h"

#include <functional>
#include <utility>

namespace xqjg {

namespace {

size_t HashInt(int64_t v) { return std::hash<int64_t>()(v); }

size_t HashDouble(double d) {
  // Same rule as Value::Hash: integral doubles hash like the equal int.
  if (d == static_cast<int64_t>(d)) return HashInt(static_cast<int64_t>(d));
  return std::hash<double>()(d);
}

bool IsStringLike(ColumnTag tag) {
  return tag == ColumnTag::kString || tag == ColumnTag::kDictString;
}

}  // namespace

uint32_t StringDict::Intern(const std::string& s) {
  auto it = code_of.find(s);
  if (it != code_of.end()) return it->second;
  const auto code = static_cast<uint32_t>(strings.size());
  strings.push_back(s);
  hashes.push_back(std::hash<std::string>()(s));
  code_of.emplace(s, code);
  return code;
}

int64_t StringDict::Lookup(const std::string& s) const {
  auto it = code_of.find(s);
  return it == code_of.end() ? -1 : static_cast<int64_t>(it->second);
}

Value ValueColumn::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (tag_) {
    case ColumnTag::kInt:
      return Value::Int(ints_[row]);
    case ColumnTag::kDouble:
      return Value::Double(doubles_[row]);
    case ColumnTag::kString:
      return Value::String(strings_[row]);
    case ColumnTag::kDictString:
      return Value::String(dict_->strings[codes_[row]]);
    case ColumnTag::kMixed:
      return values_[row];
  }
  return Value::Null();
}

void ValueColumn::Reserve(size_t n) {
  switch (tag_) {
    case ColumnTag::kInt:
      ints_.reserve(n);
      break;
    case ColumnTag::kDouble:
      doubles_.reserve(n);
      break;
    case ColumnTag::kString:
      strings_.reserve(n);
      break;
    case ColumnTag::kDictString:
      codes_.reserve(n);
      break;
    case ColumnTag::kMixed:
      values_.reserve(n);
      break;
  }
}

void ValueColumn::SetTagFromFirstValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt:
      DecideTag(ColumnTag::kInt);
      break;
    case ValueType::kDouble:
      DecideTag(ColumnTag::kDouble);
      break;
    case ValueType::kString:
      DecideTag(ColumnTag::kString);
      break;
    case ValueType::kNull:
      break;  // tag stays undecided until a non-NULL value arrives
  }
}

void ValueColumn::DecideTag(ColumnTag tag) {
  // Rows stored so far (if any) are all NULL and live in the default kInt
  // payload; move their placeholder slots to the decided representation.
  ints_.clear();
  tag_ = tag;
  tag_decided_ = true;
  switch (tag_) {
    case ColumnTag::kInt:
      ints_.assign(size_, 0);
      break;
    case ColumnTag::kDouble:
      doubles_.assign(size_, 0);
      break;
    case ColumnTag::kString:
      strings_.assign(size_, std::string());
      break;
    case ColumnTag::kDictString:
      codes_.assign(size_, 0);
      break;
    case ColumnTag::kMixed:
      break;
  }
}

void ValueColumn::DemoteToMixed() {
  values_.reserve(size_);
  for (size_t i = 0; i < size_; ++i) values_.push_back(GetValue(i));
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  codes_.clear();
  dict_.reset();
  tag_ = ColumnTag::kMixed;
  tag_decided_ = true;
}

void ValueColumn::MarkNull(size_t row) {
  if (nulls_.empty()) nulls_.assign(size_, 0);
  if (nulls_.size() <= row) nulls_.resize(row + 1, 0);
  nulls_[row] = 1;
}

StringDict* ValueColumn::MutableDict() {
  if (!dict_) dict_ = std::make_shared<StringDict>();
  if (dict_.use_count() > 1) dict_ = std::make_shared<StringDict>(*dict_);
  return dict_.get();
}

uint32_t ValueColumn::InternString(const std::string& s) {
  // Existing entries need no copy-on-write — only a NEW distinct string
  // forces a private dictionary.
  if (dict_) {
    const int64_t code = dict_->Lookup(s);
    if (code >= 0) return static_cast<uint32_t>(code);
  }
  return MutableDict()->Intern(s);
}

void ValueColumn::AppendNull() {
  const size_t row = size_;
  switch (tag_) {
    case ColumnTag::kInt:
      ints_.push_back(0);
      break;
    case ColumnTag::kDouble:
      doubles_.push_back(0);
      break;
    case ColumnTag::kString:
      strings_.emplace_back();
      break;
    case ColumnTag::kDictString:
      codes_.push_back(0);
      break;
    case ColumnTag::kMixed:
      values_.push_back(Value::Null());
      break;
  }
  ++size_;
  MarkNull(row);
}

void ValueColumn::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  if (!tag_decided_) SetTagFromFirstValue(v);
  const bool matches =
      (tag_ == ColumnTag::kMixed) ||
      (tag_ == ColumnTag::kInt && v.type() == ValueType::kInt) ||
      (tag_ == ColumnTag::kDouble && v.type() == ValueType::kDouble) ||
      (IsStringLike(tag_) && v.type() == ValueType::kString);
  if (!matches) DemoteToMixed();
  switch (tag_) {
    case ColumnTag::kInt:
      ints_.push_back(v.AsInt());
      break;
    case ColumnTag::kDouble:
      doubles_.push_back(v.AsDouble());
      break;
    case ColumnTag::kString:
      strings_.push_back(v.AsString());
      break;
    case ColumnTag::kDictString:
      codes_.push_back(InternString(v.AsString()));
      break;
    case ColumnTag::kMixed:
      values_.push_back(v);
      break;
  }
  ++size_;
  if (!nulls_.empty()) nulls_.push_back(0);
}

void ValueColumn::AppendFrom(const ValueColumn& src, size_t row) {
  if (src.IsNull(row)) {
    AppendNull();
    return;
  }
  if (!tag_decided_ && src.tag_ != ColumnTag::kMixed) {
    // Only NULLs so far: take src's representation (sharing its
    // dictionary), so this cell and the ones after it copy typed.
    DecideTag(src.tag_);
    dict_ = src.dict_;
  }
  if (tag_decided_ && tag_ == src.tag_ && src.tag_ != ColumnTag::kMixed) {
    switch (tag_) {
      case ColumnTag::kInt:
        ints_.push_back(src.ints_[row]);
        break;
      case ColumnTag::kDouble:
        doubles_.push_back(src.doubles_[row]);
        break;
      case ColumnTag::kString:
        strings_.push_back(src.strings_[row]);
        break;
      case ColumnTag::kDictString:
        if (dict_ == src.dict_) {
          codes_.push_back(src.codes_[row]);
        } else {
          codes_.push_back(InternString(src.StringAt(row)));
        }
        break;
      case ColumnTag::kMixed:
        break;
    }
    ++size_;
    if (!nulls_.empty()) nulls_.push_back(0);
    return;
  }
  // Cross-representation string appends stay typed (no Value round-trip).
  if (tag_decided_ && IsStringLike(tag_) && IsStringLike(src.tag_)) {
    if (tag_ == ColumnTag::kString) {
      strings_.push_back(src.StringAt(row));
    } else {
      codes_.push_back(InternString(src.StringAt(row)));
    }
    ++size_;
    if (!nulls_.empty()) nulls_.push_back(0);
    return;
  }
  Append(src.GetValue(row));
}

size_t ValueColumn::HashAt(size_t row) const {
  if (IsNull(row)) return Value::kNullHash;
  switch (tag_) {
    case ColumnTag::kInt:
      return HashInt(ints_[row]);
    case ColumnTag::kDouble:
      return HashDouble(doubles_[row]);
    case ColumnTag::kString:
      return std::hash<std::string>()(strings_[row]);
    case ColumnTag::kDictString:
      return dict_->hashes[codes_[row]];
    case ColumnTag::kMixed:
      return values_[row].Hash();
  }
  return 0;
}

bool ValueColumn::EqualAt(const ValueColumn& a, size_t arow,
                          const ValueColumn& b, size_t brow) {
  const bool anull = a.IsNull(arow), bnull = b.IsNull(brow);
  if (anull || bnull) return anull && bnull;
  if (a.tag_ == b.tag_) {
    switch (a.tag_) {
      case ColumnTag::kInt:
        return a.ints_[arow] == b.ints_[brow];
      case ColumnTag::kDouble:
        return a.doubles_[arow] == b.doubles_[brow];
      case ColumnTag::kString:
        return a.strings_[arow] == b.strings_[brow];
      case ColumnTag::kDictString:
        if (a.dict_ == b.dict_) return a.codes_[arow] == b.codes_[brow];
        return a.StringAt(arow) == b.StringAt(brow);
      case ColumnTag::kMixed:
        return a.values_[arow] == b.values_[brow];
    }
  }
  // Dict vs plain string columns compare their payloads directly.
  if (IsStringLike(a.tag_) && IsStringLike(b.tag_)) {
    return a.StringAt(arow) == b.StringAt(brow);
  }
  return a.GetValue(arow) == b.GetValue(brow);
}

bool ValueColumn::SortLessAt(const ValueColumn& a, size_t arow,
                             const ValueColumn& b, size_t brow) {
  const bool anull = a.IsNull(arow), bnull = b.IsNull(brow);
  if (anull != bnull) return anull;
  if (anull) return false;
  if (a.tag_ == b.tag_) {
    switch (a.tag_) {
      case ColumnTag::kInt:
        return a.ints_[arow] < b.ints_[brow];
      case ColumnTag::kDouble:
        return a.doubles_[arow] < b.doubles_[brow];
      case ColumnTag::kString:
        return a.strings_[arow] < b.strings_[brow];
      case ColumnTag::kDictString:
        // Codes are appearance-ordered, not sorted: compare the strings.
        return a.StringAt(arow) < b.StringAt(brow);
      case ColumnTag::kMixed:
        return a.values_[arow].SortLess(b.values_[brow]);
    }
  }
  if (IsStringLike(a.tag_) && IsStringLike(b.tag_)) {
    return a.StringAt(arow) < b.StringAt(brow);
  }
  return a.GetValue(arow).SortLess(b.GetValue(brow));
}

ValueColumn ValueColumn::Ints(std::vector<int64_t> v,
                              std::vector<uint8_t> nulls) {
  ValueColumn col;
  col.tag_ = ColumnTag::kInt;
  col.tag_decided_ = true;
  col.size_ = v.size();
  col.ints_ = std::move(v);
  if (!nulls.empty()) nulls.resize(col.size_, 0);  // mask covers every row
  col.nulls_ = std::move(nulls);
  return col;
}

ValueColumn ValueColumn::Doubles(std::vector<double> v,
                                 std::vector<uint8_t> nulls) {
  ValueColumn col;
  col.tag_ = ColumnTag::kDouble;
  col.tag_decided_ = true;
  col.size_ = v.size();
  col.doubles_ = std::move(v);
  if (!nulls.empty()) nulls.resize(col.size_, 0);  // mask covers every row
  col.nulls_ = std::move(nulls);
  return col;
}

ValueColumn ValueColumn::Strings(std::vector<std::string> v,
                                 std::vector<uint8_t> nulls) {
  ValueColumn col;
  col.tag_ = ColumnTag::kString;
  col.tag_decided_ = true;
  col.size_ = v.size();
  col.strings_ = std::move(v);
  if (!nulls.empty()) nulls.resize(col.size_, 0);  // mask covers every row
  col.nulls_ = std::move(nulls);
  return col;
}

ValueColumn ValueColumn::DictStrings(const std::vector<std::string>& v,
                                     std::vector<uint8_t> nulls) {
  ValueColumn col;
  col.tag_ = ColumnTag::kDictString;
  col.tag_decided_ = true;
  col.size_ = v.size();
  if (!nulls.empty()) nulls.resize(col.size_, 0);  // mask covers every row
  col.nulls_ = std::move(nulls);
  col.dict_ = std::make_shared<StringDict>();
  col.codes_.reserve(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    // NULL slots carry code 0 as a don't-care (the mask wins).
    col.codes_.push_back(col.IsNull(i) ? 0 : col.dict_->Intern(v[i]));
  }
  return col;
}

ValueColumn ValueColumn::DictCodes(std::shared_ptr<const StringDict> dict,
                                   std::vector<uint32_t> codes,
                                   std::vector<uint8_t> nulls) {
  ValueColumn col;
  col.tag_ = ColumnTag::kDictString;
  col.tag_decided_ = true;
  col.size_ = codes.size();
  // Shared like a gather's dictionary: an append of a new distinct string
  // copies it first (MutableDict), so the const view stays immutable.
  col.dict_ = std::const_pointer_cast<StringDict>(std::move(dict));
  col.codes_ = std::move(codes);
  if (!nulls.empty()) nulls.resize(col.size_, 0);  // mask covers every row
  col.nulls_ = std::move(nulls);
  return col;
}

ValueColumn ValueColumn::Gather(const std::vector<uint32_t>& idx) const {
  ValueColumn out;
  out.tag_ = tag_;
  out.tag_decided_ = tag_decided_;
  out.size_ = idx.size();
  switch (tag_) {
    case ColumnTag::kInt:
      out.ints_.reserve(idx.size());
      for (uint32_t i : idx) out.ints_.push_back(ints_[i]);
      break;
    case ColumnTag::kDouble:
      out.doubles_.reserve(idx.size());
      for (uint32_t i : idx) out.doubles_.push_back(doubles_[i]);
      break;
    case ColumnTag::kString:
      out.strings_.reserve(idx.size());
      for (uint32_t i : idx) out.strings_.push_back(strings_[i]);
      break;
    case ColumnTag::kDictString:
      out.dict_ = dict_;  // shared — a gather never copies the dictionary
      out.codes_.reserve(idx.size());
      for (uint32_t i : idx) out.codes_.push_back(codes_[i]);
      break;
    case ColumnTag::kMixed:
      out.values_.reserve(idx.size());
      for (uint32_t i : idx) out.values_.push_back(values_[i]);
      break;
  }
  if (!nulls_.empty()) {
    out.nulls_.reserve(idx.size());
    bool any = false;
    for (uint32_t i : idx) {
      out.nulls_.push_back(nulls_[i]);
      any = any || nulls_[i];
    }
    if (!any) out.nulls_.clear();
  }
  return out;
}

ValueColumn ValueColumn::EmptyLike(const ValueColumn& src) {
  ValueColumn col;
  col.tag_ = src.tag_;
  col.tag_decided_ = src.tag_decided_;
  col.dict_ = src.dict_;  // shared until a new distinct string interns
  return col;
}

void ValueColumn::AppendRange(const ValueColumn& src, size_t begin,
                              size_t len) {
  if (len == 0) return;
  if (!tag_decided_ || tag_ != src.tag_ || tag_ == ColumnTag::kMixed) {
    // Representation mismatch: the per-row path handles every promotion.
    // Delta splice of an already-typed relation (DDL/load time, not query
    // execution).  xqjg-lint: allow(no-budget-guard)
    for (size_t i = 0; i < len; ++i) AppendFrom(src, begin + i);
    return;
  }
  const size_t old_size = size_;
  switch (tag_) {
    case ColumnTag::kInt:
      ints_.insert(ints_.end(), src.ints_.begin() + static_cast<ptrdiff_t>(begin),
                   src.ints_.begin() + static_cast<ptrdiff_t>(begin + len));
      break;
    case ColumnTag::kDouble:
      doubles_.insert(doubles_.end(),
                      src.doubles_.begin() + static_cast<ptrdiff_t>(begin),
                      src.doubles_.begin() + static_cast<ptrdiff_t>(begin + len));
      break;
    case ColumnTag::kString:
      strings_.insert(strings_.end(),
                      src.strings_.begin() + static_cast<ptrdiff_t>(begin),
                      src.strings_.begin() + static_cast<ptrdiff_t>(begin + len));
      break;
    case ColumnTag::kDictString: {
      if (dict_ == src.dict_) {
        codes_.insert(codes_.end(),
                      src.codes_.begin() + static_cast<ptrdiff_t>(begin),
                      src.codes_.begin() + static_cast<ptrdiff_t>(begin + len));
      } else {
        // Re-intern the source DICTIONARY once, then map codes through the
        // table. When this column's dictionary is a copy-on-write superset
        // of src's (the delta-splice case), every remapped code equals the
        // source code, so the spliced run stays byte-identical.
        std::vector<uint32_t> remap(src.dict_ ? src.dict_->strings.size() : 0);
        for (size_t c = 0; c < remap.size(); ++c) {
          remap[c] = InternString(src.dict_->strings[c]);
        }
        // xqjg-lint: allow(no-budget-guard): load/DDL-time splice
        for (size_t i = 0; i < len; ++i) {
          const size_t r = begin + i;
          // NULL slots carry code 0 as a don't-care (the mask wins).
          codes_.push_back(src.IsNull(r) ? 0 : remap[src.codes_[r]]);
        }
      }
      break;
    }
    case ColumnTag::kMixed:
      break;  // excluded above
  }
  const uint8_t* src_mask = src.null_mask();
  bool src_any = false;
  if (src_mask) {
    for (size_t i = 0; i < len && !src_any; ++i) src_any = src_mask[begin + i] != 0;
  }
  if (!nulls_.empty() || src_any) {
    if (nulls_.empty()) nulls_.assign(old_size, 0);
    if (src_mask) {
      nulls_.insert(nulls_.end(), src_mask + begin, src_mask + begin + len);
    } else {
      nulls_.insert(nulls_.end(), len, 0);
    }
  }
  size_ = old_size + len;
}

void ValueColumn::AppendString(const std::string& s) {
  if (tag_decided_ && tag_ == ColumnTag::kDictString) {
    codes_.push_back(InternString(s));
  } else if (tag_decided_ && tag_ == ColumnTag::kString) {
    strings_.push_back(s);
  } else {
    Append(Value::String(s));
    return;
  }
  ++size_;
  if (!nulls_.empty()) nulls_.push_back(0);
}

int64_t ValueColumn::dict_bytes() const {
  if (!dict_) return 0;
  int64_t bytes = 0;
  for (const std::string& s : dict_->strings) {
    // Each distinct string is stored twice (payload vector + code_of key).
    bytes += static_cast<int64_t>(2 * (sizeof(std::string) + s.size()));
  }
  bytes += static_cast<int64_t>(dict_->hashes.size() * sizeof(size_t));
  // Hash-map node overhead: bucket pointer + node links + code, rounded.
  bytes += static_cast<int64_t>(dict_->code_of.size() *
                                (sizeof(uint32_t) + 3 * sizeof(void*)));
  return bytes;
}

int64_t ValueColumn::ApproxBytes() const {
  int64_t bytes = static_cast<int64_t>(nulls_.size());
  bytes += static_cast<int64_t>(ints_.size()) * 8;
  bytes += static_cast<int64_t>(doubles_.size()) * 8;
  bytes += static_cast<int64_t>(codes_.size()) * 4;
  for (const std::string& s : strings_) {
    bytes += static_cast<int64_t>(sizeof(std::string) + s.size());
  }
  for (const Value& v : values_) {
    bytes += static_cast<int64_t>(sizeof(Value));
    if (v.type() == ValueType::kString) {
      bytes += static_cast<int64_t>(v.AsString().size());
    }
  }
  return bytes;
}

ValueColumn ColumnFromValues(const std::vector<Value>& values) {
  ValueColumn col;
  col.Reserve(values.size());
  for (const Value& v : values) col.Append(v);
  return col;
}

std::vector<Value> ColumnToValues(const ValueColumn& column) {
  std::vector<Value> out;
  out.reserve(column.size());
  for (size_t i = 0; i < column.size(); ++i) out.push_back(column.GetValue(i));
  return out;
}

}  // namespace xqjg

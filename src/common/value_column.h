// Typed column chunk + Value ↔ column conversion helpers.
//
// A ValueColumn stores one column of a materialized table in typed form
// (int64 / double / string vectors with an optional null mask) instead of
// one Value per cell. It is the storage unit of the columnar batch
// executor (src/engine/columnar/) and of the doc relation itself
// (engine::Database); the per-row accessors mirror Value semantics
// exactly (Hash / operator== / SortLess), so the columnar and row
// executors agree bit-for-bit.
//
// String columns may additionally be dictionary-encoded (kDictString): a
// shared dictionary of distinct strings plus a per-row code vector.
// Equality over dict codes, precomputed per-entry hashes, and gathers
// that share the dictionary make dictionary columns the preferred
// representation for low-cardinality columns like the doc relation's
// `name`. Dictionary and plain string columns agree on HashAt / EqualAt /
// SortLessAt, so the two representations mix freely in joins and sorts.
//
// Columns whose cells do not share one runtime type degrade to a kMixed
// representation holding plain Values — correctness never depends on a
// column being cleanly typed, only speed does.
#ifndef XQJG_COMMON_VALUE_COLUMN_H_
#define XQJG_COMMON_VALUE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/value.h"

namespace xqjg {

enum class ColumnTag { kInt, kDouble, kString, kDictString, kMixed };

/// The shared payload of a dictionary-encoded string column: the distinct
/// strings in first-appearance order, their precomputed hashes (identical
/// to Value::Hash() of the string), and a code lookup for appends.
/// Immutable once shared — appending a NEW distinct string to a column
/// whose dictionary is shared clones the dictionary first (copy-on-write).
struct StringDict {
  std::vector<std::string> strings;
  std::vector<size_t> hashes;
  std::unordered_map<std::string, uint32_t> code_of;

  /// Returns the code of `s`, inserting it if absent.
  uint32_t Intern(const std::string& s);
  /// Returns the code of `s`, or -1 if not in the dictionary.
  int64_t Lookup(const std::string& s) const;
};

class ValueColumn {
 public:
  ValueColumn() = default;

  size_t size() const { return size_; }
  ColumnTag tag() const { return tag_; }
  bool has_nulls() const { return !nulls_.empty(); }
  bool IsNull(size_t row) const { return !nulls_.empty() && nulls_[row]; }
  /// Raw null mask (1 = NULL), or nullptr when the column has no NULLs.
  const uint8_t* null_mask() const {
    return nulls_.empty() ? nullptr : nulls_.data();
  }

  /// Reconstructs the cell as a Value (NULL slots return Value::Null()).
  Value GetValue(size_t row) const;

  void Reserve(size_t n);
  void Append(const Value& v);
  void AppendNull();
  /// Appends src's cell `row`; fast (no Value round-trip) when tags match
  /// (dict → dict with a shared dictionary copies the code directly). A
  /// column holding only NULLs takes src's representation, and a
  /// dictionary source's dictionary, on its first non-NULL cell.
  void AppendFrom(const ValueColumn& src, size_t row);

  /// Mirrors Value::Hash() of GetValue(row) without materializing it
  /// (dictionary columns return the precomputed per-entry hash).
  size_t HashAt(size_t row) const;
  /// Mirrors Value::operator== (NULL == NULL is true, NULL == x is false).
  static bool EqualAt(const ValueColumn& a, size_t arow, const ValueColumn& b,
                      size_t brow);
  /// Mirrors Value::SortLess (total order: NULL, numerics, strings).
  static bool SortLessAt(const ValueColumn& a, size_t arow,
                         const ValueColumn& b, size_t brow);

  /// Typed raw access; valid only when tag() matches (and the slot may be
  /// a don't-care default for NULL rows).
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }

  /// Dictionary access; valid only for kDictString columns.
  const std::vector<uint32_t>& dict_codes() const { return codes_; }
  const StringDict& dict() const { return *dict_; }
  size_t dict_size() const { return dict_ ? dict_->strings.size() : 0; }
  /// Code of `s` in this column's dictionary, or -1 when absent (then no
  /// row of the column can equal `s`) — the equality-kernel fast path.
  int64_t DictCode(const std::string& s) const {
    return dict_ ? dict_->Lookup(s) : -1;
  }

  /// The string payload of row; valid for kString and kDictString tags.
  const std::string& StringAt(size_t row) const {
    return tag_ == ColumnTag::kDictString ? dict_->strings[codes_[row]]
                                          : strings_[row];
  }

  /// Bulk constructors (empty `nulls` = no NULL rows; else one flag/row).
  static ValueColumn Ints(std::vector<int64_t> v,
                          std::vector<uint8_t> nulls = {});
  static ValueColumn Doubles(std::vector<double> v,
                             std::vector<uint8_t> nulls = {});
  static ValueColumn Strings(std::vector<std::string> v,
                             std::vector<uint8_t> nulls = {});
  /// Dictionary-encoded construction: interns every non-NULL string.
  static ValueColumn DictStrings(const std::vector<std::string>& v,
                                 std::vector<uint8_t> nulls = {});
  /// Dictionary column over an existing dictionary, shared (never
  /// copied): `codes` index `dict`'s entries.
  static ValueColumn DictCodes(std::shared_ptr<const StringDict> dict,
                               std::vector<uint32_t> codes,
                               std::vector<uint8_t> nulls = {});

  /// New column with rows picked by `idx` (typed gather, no Value boxing;
  /// dictionary columns share the dictionary with the source).
  ValueColumn Gather(const std::vector<uint32_t>& idx) const;

  /// Zero-row column with src's representation; a dictionary column
  /// SHARES src's dictionary (copy-on-write fires only if a later append
  /// interns a new distinct string). The starting point of the delta
  /// splices in xml::DocBlock.
  static ValueColumn EmptyLike(const ValueColumn& src);

  /// Bulk-appends src rows [begin, begin+len): typed vector splices when
  /// the representations match. Dictionary → dictionary appends copy the
  /// code vector when the dictionary is shared; otherwise the source
  /// dictionary is re-interned ONCE (O(|src dict|)) and codes map through
  /// the resulting table — never a per-row string hash.
  void AppendRange(const ValueColumn& src, size_t begin, size_t len);

  /// Appends one non-NULL string without boxing a Value (dictionary
  /// columns intern, plain string columns push).
  void AppendString(const std::string& s);

  /// The shared dictionary (null for non-dictionary columns). Exposed for
  /// sharing/identity assertions and memory accounting — dictionaries are
  /// deduplicated by this pointer when summing a relation's footprint.
  std::shared_ptr<const StringDict> dict_ptr() const { return dict_; }

  /// Approximate heap bytes of the dictionary itself (strings + hashes +
  /// code map). Charged once per DISTINCT dictionary by block-level
  /// accounting; ApproxBytes() deliberately excludes it.
  int64_t dict_bytes() const;

  /// Approximate heap bytes of this column's per-row payload (shared
  /// dictionaries excluded — they are owned by the source relation). The
  /// unit the columnar executors charge against
  /// ExecLimits::max_memory_bytes.
  int64_t ApproxBytes() const;

 private:
  void SetTagFromFirstValue(const Value& v);
  /// Fixes the representation of a column that holds only NULLs so far.
  void DecideTag(ColumnTag tag);
  void DemoteToMixed();
  void MarkNull(size_t row);
  /// Clones the dictionary if other columns share it (copy-on-write
  /// before interning a new entry).
  StringDict* MutableDict();
  /// Code of `s`, interning it (with copy-on-write) only when new.
  uint32_t InternString(const std::string& s);

  ColumnTag tag_ = ColumnTag::kInt;
  bool tag_decided_ = false;
  size_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<uint32_t> codes_;            // kDictString payload
  std::shared_ptr<StringDict> dict_;       // kDictString dictionary
  std::vector<Value> values_;    // kMixed payload
  std::vector<uint8_t> nulls_;   // empty, or size_ flags (1 = NULL)
};

/// Value ↔ column conversion helpers.
ValueColumn ColumnFromValues(const std::vector<Value>& values);
std::vector<Value> ColumnToValues(const ValueColumn& column);

/// Compiled `dict_col = 'const'` / `dict_col != 'const'` kernel — the
/// single shared implementation behind every executor's dictionary
/// equality fast path (the constant is looked up in the dictionary once;
/// per row it is one uint32 compare). NULL rows never pass, either op —
/// comparisons against NULL are unknown. `ok` is false when the column
/// is not dictionary-encoded (callers fall back to their generic path).
/// Holds raw pointers into the column: valid only while the column (and
/// its dictionary) outlive the kernel.
struct DictEqKernel {
  bool ok = false;
  const uint32_t* codes = nullptr;
  const uint8_t* nulls = nullptr;  // may be null (no NULL rows)
  bool present = false;            // constant exists in the dictionary
  uint32_t code = 0;
  bool negate = false;  // inequality form

  static DictEqKernel Compile(const ValueColumn& col,
                              const std::string& constant, bool negate) {
    DictEqKernel k;
    if (col.tag() != ColumnTag::kDictString) return k;
    k.codes = col.dict_codes().data();
    k.nulls = col.null_mask();
    const int64_t code = col.DictCode(constant);
    k.present = code >= 0;
    k.code = k.present ? static_cast<uint32_t>(code) : 0;
    k.negate = negate;
    k.ok = true;
    return k;
  }

  bool Test(size_t row) const {
    if (nulls && nulls[row]) return false;  // NULL never compares true
    const bool eq = present && codes[row] == code;
    return negate ? !eq : eq;
  }
};

}  // namespace xqjg

#endif  // XQJG_COMMON_VALUE_COLUMN_H_

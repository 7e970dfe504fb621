// Tabular XML infoset encoding (paper Fig. 2).
//
// Each XML node occupies one row of the `doc` table:
//   pre    unique document-order rank (key)
//   size   number of nodes in the subtree below the node
//   level  length of the path to the node's document root
//   kind   DOC / ELEM / ATTR / TEXT / COMM / PI
//   name   tag or attribute name; for DOC rows the document URI
//   value  untyped string value for nodes with size <= 1
//   data   result of casting `value` to xs:decimal, when that cast succeeds
//
// Encoding extensions: we additionally keep
//   parent  pre rank of the parent node (-1 for DOC rows) — pre/size/level
//           alone cannot express the sibling axes as a predicate between
//           two rows; with `parent`, following-sibling becomes
//           `parent = parent° AND pre > pre°`, still join-graph material;
//   root    pre rank of the owning document's DOC row — bounds the
//           following/preceding axes when one table hosts several trees.
//
// One DocTable may host several documents ("multiple occurrences of DOC in
// column kind"), distinguished by their URIs.
#ifndef XQJG_XML_INFOSET_H_
#define XQJG_XML_INFOSET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace xqjg::xml {

class DocBlock;  // shared typed/dict column block (src/xml/doc_block.h)

/// XML node kinds stored in the `kind` column.
enum class NodeKind : uint8_t {
  kDoc = 0,
  kElem = 1,
  kAttr = 2,
  kText = 3,
  kComment = 4,
  kPi = 5,
};

/// Renders a NodeKind the way the paper prints it ("DOC", "ELEM", ...).
const char* NodeKindToString(NodeKind kind);

/// One row of the doc table; used for row-at-a-time access and tests.
struct DocRow {
  int64_t pre = 0;
  int64_t size = 0;
  int64_t level = 0;
  int64_t parent = -1;
  int64_t root = 0;
  NodeKind kind = NodeKind::kElem;
  std::string name;
  std::string value;
  bool has_value = false;
  double data = 0.0;
  bool has_data = false;
};

/// \brief Columnar pre/size/level encoding of one or more XML documents.
///
/// Rows are stored in document order; `pre` equals the row position, which
/// makes pre-based point access O(1).
///
/// A DocTable is either BUILDER-backed (the parser appends into private
/// row vectors — the historical representation, still used for scratch
/// parses and ad-hoc test tables) or VIEW-backed over a shared DocBlock
/// (FromBlock): the accessors then read the block's typed columns in
/// place, so the serializer works off the same bytes as the columnar
/// executors. View tables are read-only — the builder
/// mutators (AppendRow/SetSize/SetValue) must not be called on them.
class DocTable {
 public:
  /// Wraps a shared column block as a read-only DocTable view; no row
  /// payload is copied.
  static DocTable FromBlock(std::shared_ptr<const DocBlock> block);

  /// The shared block backing this table, or null for builder tables.
  const std::shared_ptr<const DocBlock>& block() const { return block_; }

  int64_t row_count() const {
    return block_ ? view_rows_ : static_cast<int64_t>(pre_size_.size());
  }

  /// Appends a row; `pre` is implied by the current row count.
  void AppendRow(int64_t size, int64_t level, NodeKind kind,
                 std::string name, std::string value, bool has_value,
                 int64_t parent = -1, int64_t root = 0);

  /// Patches `size` of an existing row (used by the single-pass builder).
  void SetSize(int64_t pre, int64_t size) { pre_size_[pre] = size; }
  /// Patches `value`/`data` of an existing row.
  void SetValue(int64_t pre, std::string value);

  int64_t size(int64_t pre) const {
    return block_ ? v_size_[pre] : pre_size_[pre];
  }
  int64_t level(int64_t pre) const {
    return block_ ? v_level_[pre] : level_[pre];
  }
  NodeKind kind(int64_t pre) const {
    return block_ ? static_cast<NodeKind>(v_kind_[pre]) : kind_[pre];
  }
  const std::string& name(int64_t pre) const {
    return block_ ? (*v_name_strings_)[v_name_codes_[pre]] : name_[pre];
  }
  const std::string& value(int64_t pre) const {
    if (!block_) return value_[pre];
    // Builder tables keep an empty string in valueless slots; the view
    // returns the same observable content for them.
    if (v_value_nulls_ && v_value_nulls_[pre]) return EmptyString();
    return (*v_value_strings_)[v_value_codes_[pre]];
  }
  bool has_value(int64_t pre) const {
    if (!block_) return has_value_[pre] != 0;
    return !(v_value_nulls_ && v_value_nulls_[pre]);
  }
  double data(int64_t pre) const { return block_ ? v_data_[pre] : data_[pre]; }
  bool has_data(int64_t pre) const {
    if (!block_) return has_data_[pre] != 0;
    return !(v_data_nulls_ && v_data_nulls_[pre]);
  }

  /// Materializes one row (tests / debugging).
  DocRow Row(int64_t pre) const;

  /// Pre rank of the DOC row whose URI is `uri`, or error if absent.
  Result<int64_t> FindDocument(const std::string& uri) const;

  /// Pre ranks of all DOC rows, in document order.
  std::vector<int64_t> DocumentRoots() const;

  /// True iff `descendant` lies in the subtree below `ancestor`
  /// (pre interval containment, Fig. 3).
  bool IsDescendant(int64_t ancestor, int64_t descendant) const {
    return ancestor < descendant && descendant <= ancestor + size(ancestor);
  }

  /// Parent pre rank of `pre`, or -1 for DOC rows. O(1).
  int64_t Parent(int64_t pre) const {
    return block_ ? v_parent_[pre] : parent_[pre];
  }

  /// Pre rank of the owning document's DOC row. O(1).
  int64_t Root(int64_t pre) const { return block_ ? v_root_[pre] : root_[pre]; }

 private:
  static const std::string& EmptyString();

  // Builder representation (empty for view tables).
  std::vector<int64_t> pre_size_;
  std::vector<int64_t> parent_;
  std::vector<int64_t> root_;
  std::vector<int32_t> level_;
  std::vector<NodeKind> kind_;
  std::vector<std::string> name_;
  std::vector<std::string> value_;
  std::vector<uint8_t> has_value_;
  std::vector<double> data_;
  std::vector<uint8_t> has_data_;

  // View representation: the owning block plus raw spans into its typed
  // columns, cached once by FromBlock so the accessors stay branch+load.
  // The pointers stay valid for the block's lifetime (columns immutable).
  std::shared_ptr<const DocBlock> block_;
  int64_t view_rows_ = 0;
  const int64_t* v_size_ = nullptr;
  const int64_t* v_level_ = nullptr;
  const int64_t* v_kind_ = nullptr;
  const int64_t* v_parent_ = nullptr;
  const int64_t* v_root_ = nullptr;
  const std::vector<std::string>* v_name_strings_ = nullptr;
  const uint32_t* v_name_codes_ = nullptr;
  const std::vector<std::string>* v_value_strings_ = nullptr;
  const uint32_t* v_value_codes_ = nullptr;
  const uint8_t* v_value_nulls_ = nullptr;  // null = no NULL rows
  const double* v_data_ = nullptr;
  const uint8_t* v_data_nulls_ = nullptr;  // null = no NULL rows
};

}  // namespace xqjg::xml

#endif  // XQJG_XML_INFOSET_H_
